"""Matrix Project + Matrix Reloaded: jobs as matrices of options.

Slide 15: Jenkins' *Matrix Project* plugin runs one job over the cartesian
product of its axes — ``test_environments: 14 images x 32 clusters = 448
configurations`` — and *Matrix Reloaded* re-runs a chosen subset of cells
(typically the failed ones) without re-running the whole matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from ..util.errors import CiError
from .job import Build, BuildStatus
from .server import JenkinsServer

__all__ = ["MatrixProject", "matrix_reloaded"]


@dataclass
class MatrixProject:
    """A job parameterized by the cartesian product of its axes."""

    job_name: str
    axes: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, values in self.axes.items():
            if not values:
                raise CiError(f"matrix axis {name!r} has no values")
            if len(set(values)) != len(values):
                raise CiError(f"matrix axis {name!r} has duplicate values")

    @property
    def cell_count(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def cells(self) -> list[dict[str, Any]]:
        """All axis combinations, in deterministic order."""
        names = sorted(self.axes)
        combos = itertools.product(*(self.axes[n] for n in names))
        return [dict(zip(names, combo)) for combo in combos]

    def trigger_all(self, server: JenkinsServer, cause: str = "matrix",
                    cells: Optional[list[dict[str, Any]]] = None) -> list[Build]:
        """Enqueue one build per cell (or per given subset of cells)."""
        return [server.trigger(self.job_name, parameters=cell, cause=cause)
                for cell in (cells if cells is not None else self.cells())]


def matrix_reloaded(project: MatrixProject, server: JenkinsServer,
                    statuses: tuple[BuildStatus, ...] = (BuildStatus.FAILURE,
                                                         BuildStatus.UNSTABLE,
                                                         BuildStatus.ABORTED),
                    cause: str = "matrix-reloaded") -> list[Build]:
    """Re-trigger the cells whose last result is in ``statuses``.

    This is the *Matrix Reloaded* plugin behaviour: retry the failed subset
    of a matrix without burning resources on the cells that passed.
    """
    names = sorted(project.axes)
    retry_cells = []
    for cell in project.cells():
        last = server.job(project.job_name).last_build(parameters=cell)
        if last is not None and last.status in statuses:
            retry_cells.append(dict(zip(names, (cell[n] for n in names))))
    return project.trigger_all(server, cause=cause, cells=retry_cells)
