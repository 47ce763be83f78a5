"""Tests for the decision-function code generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selection.codegen import (
    C_ALGORITHM_IDS,
    compile_python,
    generate_c,
    generate_python,
)
from repro.selection.decision_table import DecisionTable
from repro.selection.oracle import Selection
from repro.units import KiB, MiB


def make_table():
    return DecisionTable(
        proc_points=(2, 16, 64),
        size_points=(1 * KiB, 64 * KiB, 1 * MiB),
        choices=(
            (
                Selection("linear", 0),
                Selection("linear", 0),
                Selection("chain", 128 * KiB),
            ),
            (
                Selection("binomial", 0),
                Selection("binary", 8 * KiB),
                Selection("split_binary", 8 * KiB),
            ),
            (
                Selection("binomial", 0),
                Selection("split_binary", 8 * KiB),
                Selection("chain", 8 * KiB),
            ),
        ),
    )


class TestPythonBackend:
    def test_generated_source_is_valid_python(self):
        source = generate_python(make_table())
        compile(source, "<test>", "exec")
        assert "def select_bcast(" in source
        assert "Generated decision function" in source

    def test_compiled_function_matches_table_on_grid(self):
        table = make_table()
        decide = compile_python(table)
        for procs in table.proc_points:
            for nbytes in table.size_points:
                expected = table.select(procs, nbytes)
                assert decide(procs, nbytes) == (
                    expected.algorithm,
                    expected.segment_size,
                )

    @given(procs=st.integers(1, 300), nbytes=st.integers(0, 16 * MiB))
    @settings(max_examples=150)
    def test_compiled_function_matches_table_everywhere(self, procs, nbytes):
        table = make_table()
        decide = compile_python(table)
        expected = table.select(procs, nbytes)
        assert decide(procs, nbytes) == (expected.algorithm, expected.segment_size)

    def test_custom_function_name(self):
        decide = compile_python(make_table(), function_name="pick")
        assert decide.__name__ == "pick"

    def test_generated_for_real_platform(self, mini_platform):
        from repro.selection import ModelBasedSelector, build_decision_table

        selector = ModelBasedSelector(mini_platform)
        table = build_decision_table(
            selector, [2, 8, 16], [8 * KiB, 256 * KiB, 4 * MiB]
        )
        decide = compile_python(table)
        for procs in (3, 8, 16):
            for nbytes in (8 * KiB, 1 * MiB):
                expected = table.select(procs, nbytes)
                assert decide(procs, nbytes) == (
                    expected.algorithm,
                    expected.segment_size,
                )


class TestCBackend:
    def test_structure_matches_ompi_conventions(self):
        source = generate_c(make_table())
        assert source.startswith("/* Generated by repro.selection.codegen")
        assert "#include <stddef.h>" in source  # size_t, standalone
        assert "int coll_bcast_dec_generated(" in source
        assert "*algorithm =" in source and "*segsize =" in source
        assert "return 0;" in source

    def test_braces_balanced(self):
        source = generate_c(make_table())
        assert source.count("{") == source.count("}")

    def test_every_table_algorithm_appears(self):
        table = make_table()
        source = generate_c(table)
        for row in table.choices:
            for choice in row:
                assert f"/* {choice.algorithm} */" in source
                assert f"*algorithm = {C_ALGORITHM_IDS[choice.algorithm]};" in source

    def test_thresholds_emitted_in_descending_guards(self):
        source = generate_c(make_table())
        # Larger communicator guard appears before the smaller one.
        assert source.index("communicator_size >= 64") < source.index(
            "communicator_size >= 16"
        )

    def test_all_known_algorithms_have_ids(self):
        from repro.collectives.bcast import BCAST_ALGORITHMS

        assert set(C_ALGORITHM_IDS) == set(BCAST_ALGORITHMS)


class TestGeneratedCCompiles:
    def test_gcc_syntax_check(self, tmp_path):
        """If a C compiler is present, the generated code must compile
        standalone: no forced includes, no warnings."""
        import shutil
        import subprocess

        gcc = shutil.which("gcc") or shutil.which("cc")
        if gcc is None:
            pytest.skip("no C compiler available")
        source = tmp_path / "decision.c"
        source.write_text(generate_c(make_table()))
        result = subprocess.run(
            [gcc, "-std=c99", "-Wall", "-Werror", "-fsyntax-only",
             str(source)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
