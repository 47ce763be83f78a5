"""Precomputed decision tables.

An MPI library cannot afford arbitrary work inside ``MPI_Bcast``; Open MPI
compiles its decision function into straight-line code.  The analogous
deployment of the paper's method is a table precomputed from the platform
model over a grid of communicator sizes and message sizes, with nearest
(floor) grid lookup at call time.  This module builds, queries and
round-trips such tables.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.errors import SelectionError
from repro.selection.model_based import ModelBasedSelector
from repro.selection.oracle import Selection


def floor_cell(
    proc_points: Sequence[int],
    size_points: Sequence[int],
    procs: int,
    nbytes: int,
) -> tuple[int, int, bool]:
    """The floor rule every lookup of a decision grid uses.

    Returns ``(i, j, clamped)``: the row and column of the grid cell at
    or below ``(procs, nbytes)`` on sorted, non-empty axes.  A query
    *below* the grid on either axis clamps to the first cell on that axis
    and sets ``clamped``; above-grid queries are plain floor lookups.
    """
    i = bisect_right(proc_points, procs) - 1
    j = bisect_right(size_points, nbytes) - 1
    if i < 0 or j < 0:
        return max(i, 0), max(j, 0), True
    return i, j, False


@dataclass(frozen=True)
class DecisionTable:
    """A grid of precomputed selections with floor lookup."""

    #: Sorted grid of communicator sizes.
    proc_points: tuple[int, ...]
    #: Sorted grid of message sizes (bytes).
    size_points: tuple[int, ...]
    #: ``choices[i][j]`` is the selection at proc_points[i], size_points[j].
    choices: tuple[tuple[Selection, ...], ...]

    def __post_init__(self) -> None:
        if not self.proc_points or not self.size_points:
            raise SelectionError("decision table needs a non-empty grid")
        if list(self.proc_points) != sorted(set(self.proc_points)):
            raise SelectionError("proc_points must be sorted and unique")
        if list(self.size_points) != sorted(set(self.size_points)):
            raise SelectionError("size_points must be sorted and unique")
        if len(self.choices) != len(self.proc_points) or any(
            len(row) != len(self.size_points) for row in self.choices
        ):
            raise SelectionError("choices shape does not match the grid")

    def select(self, procs: int, nbytes: int) -> Selection:
        """Floor-lookup the selection for ``(procs, nbytes)``."""
        return self.lookup(procs, nbytes)[0]

    def lookup(self, procs: int, nbytes: int) -> tuple[Selection, bool]:
        """Floor-lookup plus a clamp indicator.

        Floor lookup is total: a query *below* the grid (``procs <
        proc_points[0]`` or ``nbytes < size_points[0]``) clamps to the
        first grid cell on that axis rather than failing — the same
        convention the generated straight-line code uses (its final
        unconditional branch is the first cell).  That silent clamp is
        the right behaviour for a hot path, but callers that care
        (the selection service, audits) need to *know* the answer was
        extrapolated; the second element is ``True`` exactly when a
        clamp happened.  Above-grid queries are genuine floor lookups,
        not clamps.
        """
        i, j, clamped = floor_cell(
            self.proc_points, self.size_points, procs, nbytes
        )
        return self.choices[i][j], clamped

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "proc_points": list(self.proc_points),
            "size_points": list(self.size_points),
            "choices": [
                [[c.algorithm, c.segment_size, c.operation] for c in row]
                for row in self.choices
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTable":
        def parse(entry) -> Selection:
            algorithm, segment = entry[0], int(entry[1])
            operation = entry[2] if len(entry) > 2 else "bcast"
            return Selection(algorithm, segment, operation)

        return cls(
            proc_points=tuple(int(p) for p in data["proc_points"]),
            size_points=tuple(int(s) for s in data["size_points"]),
            choices=tuple(
                tuple(parse(entry) for entry in row) for row in data["choices"]
            ),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "DecisionTable":
        return cls.from_dict(json.loads(Path(path).read_text()))


def build_decision_table(
    selector: ModelBasedSelector,
    proc_points: Sequence[int],
    size_points: Sequence[int],
) -> DecisionTable:
    """Evaluate ``selector`` over the grid and freeze the result."""
    procs = tuple(sorted(set(int(p) for p in proc_points)))
    sizes = tuple(sorted(set(int(s) for s in size_points)))
    choices = tuple(
        tuple(selector.select(p, m) for m in sizes) for p in procs
    )
    return DecisionTable(proc_points=procs, size_points=sizes, choices=choices)
