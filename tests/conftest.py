"""Shared fixtures for the test suite.

Expensive artefacts (a calibrated platform model for the small test
cluster) are session-scoped so the selection/estimation tests share them.
"""

from __future__ import annotations

import ctypes
import itertools
import shutil
import subprocess

import pytest

from repro.clusters import GRISOU, GROS, MINICLUSTER
from repro.estimation.workflow import CalibrationResult, calibrate_platform
from repro.selection.codegen import generate_c
from repro.units import KiB, MiB, log_spaced_sizes


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Keep CLI-enabled persistent caches out of the user's ~/.cache."""
    import os

    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture(scope="session")
def mini():
    """The deterministic 16-node test cluster."""
    return MINICLUSTER


@pytest.fixture(scope="session")
def grisou_nonoise():
    """Grisou preset with noise disabled (deterministic timings)."""
    return GRISOU.with_noise(0.0)


@pytest.fixture(scope="session")
def gros_nonoise():
    """Gros preset with noise disabled (deterministic timings)."""
    return GROS.with_noise(0.0)


@pytest.fixture(scope="session")
def mini_calibration() -> CalibrationResult:
    """A full §4 calibration of the test cluster (shared, ~seconds)."""
    return calibrate_platform(
        MINICLUSTER,
        procs=8,
        sizes=log_spaced_sizes(8 * KiB, 1 * MiB, 6),
        gamma_max_procs=5,
        max_reps=3,
    )


@pytest.fixture(scope="session")
def mini_platform(mini_calibration):
    """The platform model from the shared test-cluster calibration."""
    return mini_calibration.platform


@pytest.fixture(scope="session")
def compile_decision_c(tmp_path_factory):
    """Compile a table's generated C into a shared library and load it.

    Returns ``compile_table(table)``, which builds ``generate_c(table)``
    standalone (``-std=c99 -Wall -Werror``) and returns a callable
    ``decide(procs, nbytes) -> (algorithm_id, segment_size)`` that runs
    the compiled function through :mod:`ctypes`.  Tests using it skip
    only when no C compiler is installed.
    """
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler available")
    directory = tmp_path_factory.mktemp("generated-c")
    serial = itertools.count()

    def compile_table(table):
        stem = directory / f"decision{next(serial)}"
        source = stem.with_suffix(".c")
        library = stem.with_suffix(".so")
        source.write_text(generate_c(table, function_name="decide"))
        result = subprocess.run(
            [compiler, "-std=c99", "-Wall", "-Werror", "-shared", "-fPIC",
             "-o", str(library), str(source)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        function = ctypes.CDLL(str(library)).decide
        function.argtypes = (
            ctypes.c_int,
            ctypes.c_size_t,
            ctypes.POINTER(ctypes.c_int),
            ctypes.POINTER(ctypes.c_size_t),
        )
        function.restype = ctypes.c_int

        def decide(procs: int, nbytes: int) -> tuple[int, int]:
            algorithm = ctypes.c_int()
            segment = ctypes.c_size_t()
            status = function(
                procs, nbytes, ctypes.byref(algorithm), ctypes.byref(segment)
            )
            assert status == 0
            return algorithm.value, segment.value

        return decide

    return compile_table
