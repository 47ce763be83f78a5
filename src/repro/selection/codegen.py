"""Decision-function code generation.

Open MPI does not interpret tables at run time — its decision function is
*compiled C*.  The deployment end-game of the paper's method is therefore
not a JSON file but generated source: take a precomputed
:class:`~repro.selection.decision_table.DecisionTable` and emit the
equivalent straight-line decision function, in C (for dropping into
``coll_tuned_decision_fixed.c``) or in Python (for embedding in a launcher
script).  The generated code is pure threshold comparisons — the same
shape as ``ompi_coll_tuned_bcast_intra_dec_fixed`` — and needs no runtime
dependency on this package.

The Python backend is also *executable here*: :func:`compile_python`
returns a real callable, and the tests verify it agrees with the table on
every grid cell and off-grid point.
"""

from __future__ import annotations

from repro.errors import SelectionError
from repro.selection.decision_table import DecisionTable

#: Stable algorithm identifiers for the C backend (Open MPI's numbering
#: for MPI_Bcast where one exists).
C_ALGORITHM_IDS = {
    "linear": 1,
    "chain": 3,  # Open MPI calls the single chain "pipeline"
    "k_chain": 2,  # Open MPI's "chain" (fanout 4)
    "split_binary": 4,
    "binary": 5,
    "binomial": 6,
    "scatter_allgather": 7,
    # Extension algorithm (no Open MPI number): rack-leader hierarchical.
    "hierarchical": 8,
}

#: Per-operation C algorithm numberings (Open MPI's ``coll_tuned``
#: enumerations where one exists).  ``C_ALGORITHM_IDS`` stays as the
#: broadcast map for backward compatibility.
C_OPERATION_ALGORITHM_IDS: dict[str, dict[str, int]] = {
    "bcast": C_ALGORITHM_IDS,
    "reduce": {
        "linear": 1,
        "chain": 3,  # Open MPI calls the single chain "pipeline"
        "binary": 4,
        "binomial": 5,
        "in_order_binomial": 6,
        # Extension algorithm (no Open MPI number).
        "hierarchical": 7,
    },
    "gather": {
        "linear": 1,
        "binomial": 2,
    },
    "barrier": {
        "linear": 1,
        "double_ring": 2,
        "recursive_doubling": 3,
        "bruck": 4,
    },
    # Open MPI's coll_tuned allreduce enumeration (basic_linear=1,
    # nonoverlapping=2 are not modelled).
    "allreduce": {
        "recursive_doubling": 3,
        "ring": 4,
    },
    "allgather": {
        "linear": 1,
        "bruck": 2,
        "recursive_doubling": 3,
        "ring": 4,
        "neighbor_exchange": 5,
    },
    "alltoall": {
        "linear": 1,
        "pairwise": 2,
        "bruck": 3,
    },
    "scatter": {
        "linear": 1,
        "binomial": 2,
    },
}


def algorithm_ids_for(operation: str) -> dict[str, int]:
    """The C id numbering for ``operation`` (broadcast's for unknown ops)."""
    return C_OPERATION_ALGORITHM_IDS.get(operation, C_ALGORITHM_IDS)


def _table_operation(table: DecisionTable) -> str:
    """The operation a table decides (read off its first selection)."""
    return table.choices[0][0].operation


def _selector_rows(table: DecisionTable):
    """Yield (procs_lower_bound, [(size_lower_bound, selection), ...])."""
    for i, procs in enumerate(table.proc_points):
        yield procs, [
            (table.size_points[j], table.choices[i][j])
            for j in range(len(table.size_points))
        ]


def generate_python(table: DecisionTable, function_name: str = "select_bcast") -> str:
    """Emit a dependency-free Python decision function for ``table``.

    The function takes ``(communicator_size, message_size)`` and returns
    ``(algorithm_name, segment_size)``.  Bounds follow the table's floor
    semantics: queries *below* the grid clamp to the first cell on that
    axis (the unconditional ``if True`` fallback branches), exactly as
    :meth:`DecisionTable.lookup` reports via its ``clamped`` flag — the
    generated code and the table can never disagree, on or off the grid.
    """
    lines = [
        f"def {function_name}(communicator_size, message_size):",
        '    """Generated decision function (floor semantics on both axes).',
        "",
        f"    Grid: {len(table.proc_points)} communicator sizes x "
        f"{len(table.size_points)} message sizes.",
        f"    Queries below the grid (communicator_size < "
        f"{table.proc_points[0]} or",
        f"    message_size < {table.size_points[0]}) clamp to the first "
        f"grid cell.",
        '    """',
    ]
    rows = list(_selector_rows(table))
    for index in range(len(rows) - 1, -1, -1):
        procs, cells = rows[index]
        guard = "if True" if index == 0 else f"if communicator_size >= {procs}"
        lines.append(f"    {guard}:")
        for j in range(len(cells) - 1, -1, -1):
            size, choice = cells[j]
            inner = "if True" if j == 0 else f"if message_size >= {size}"
            lines.append(f"        {inner}:")
            lines.append(
                f"            return ({choice.algorithm!r}, {choice.segment_size})"
            )
    lines.append("")
    return "\n".join(lines)


def compile_python(table: DecisionTable, function_name: str = "select_bcast"):
    """Generate and compile the Python decision function; return the callable."""
    source = generate_python(table, function_name)
    namespace: dict = {}
    exec(compile(source, f"<generated {function_name}>", "exec"), namespace)
    return namespace[function_name]


def generate_c(table: DecisionTable, function_name: str = "coll_bcast_dec_generated") -> str:
    """Emit a C decision function in Open MPI's fixed-decision style.

    The function writes the algorithm id (the operation's numbering from
    :data:`C_OPERATION_ALGORITHM_IDS`, read off the table's selections)
    and segment size through out-parameters and returns 0, matching the
    conventions of ``coll_tuned_decision_fixed.c``.
    """
    operation = _table_operation(table)
    algorithm_ids = algorithm_ids_for(operation)
    lines = [
        "/* Generated by repro.selection.codegen — do not edit.",
        f" * Operation: {operation}.",
        f" * Grid: {len(table.proc_points)} communicator sizes x "
        f"{len(table.size_points)} message sizes.",
        " * Algorithm ids: "
        + ", ".join(f"{name}={num}" for name, num in sorted(algorithm_ids.items()))
        + ".",
        f" * Queries below the grid (communicator_size < "
        f"{table.proc_points[0]} or message_size < "
        f"{table.size_points[0]}) clamp to the first grid cell.",
        " */",
        "#include <stddef.h>",
        "",
        f"int {function_name}(int communicator_size, size_t message_size,",
        f"{' ' * (len(function_name) + 5)}int *algorithm, size_t *segsize)",
        "{",
    ]
    rows = list(_selector_rows(table))
    for index in range(len(rows) - 1, -1, -1):
        procs, cells = rows[index]
        guard = (
            "    {"
            if index == 0
            else f"    if (communicator_size >= {procs}) {{"
        )
        lines.append(guard)
        for j in range(len(cells) - 1, -1, -1):
            size, choice = cells[j]
            try:
                algorithm_id = algorithm_ids[choice.algorithm]
            except KeyError:
                raise SelectionError(
                    f"no C algorithm id for {operation} algorithm "
                    f"{choice.algorithm!r}; known: "
                    f"{', '.join(sorted(algorithm_ids))}"
                ) from None
            inner = (
                "        {"
                if j == 0
                else f"        if (message_size >= {size}UL) {{"
            )
            lines.append(inner)
            lines.append(f"            *algorithm = {algorithm_id};"
                         f"  /* {choice.algorithm} */")
            lines.append(f"            *segsize = {choice.segment_size}UL;")
            lines.append("            return 0;")
            lines.append("        }")
        lines.append("    }")
    lines.append("    return -1;  /* unreachable: the grids are total */")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)
