"""The campaign service: a deduplicating matrix runner behind the wire.

A ``SUBM`` document describes a seed × scenario matrix::

    {"scenarios": ["tiny-smoke", {...spec dict...}],
     "seeds": [0, 1, 2], "months": 0.2, "workers": 2}

The service funnels every matrix through one shared
:class:`~repro.core.store.CampaignStore` with ``resume=True``, so the
store acts as a *global dedupe cache*: overlapping sweeps from any number
of clients pay for each unique ``(spec-hash, seed, months)`` cell exactly
once — later submissions stream ``cached`` cells straight from the
archive.  A lock serializes matrix execution (one batch at a time keeps
the shared warm worker fleet and the append-only store simple); progress
still streams per cell, in completion order.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Union

from .. import scenarios
from ..core.batch import CampaignRun, run_campaigns
from ..core.store import CampaignStore, MemoryBackend, StoreBackend
from ..scenarios.spec import ScenarioSpec

__all__ = ["CampaignService"]

#: Ceiling on one submitted matrix — a typo'd seed range must not wedge
#: the service for everyone.
MAX_CELLS = 4096


class CampaignService:
    """Validate, dedupe, and execute submitted campaign matrices."""

    def __init__(self, store: Union[CampaignStore, StoreBackend, str,
                                    None] = None):
        if store is None:
            store = CampaignStore(MemoryBackend())
        elif not isinstance(store, CampaignStore):
            store = CampaignStore(store)
        self.store = store
        self._lock = threading.Lock()

    def run_matrix(
        self,
        doc: dict,
        on_cell: Optional[Callable[[CampaignRun, bool, int, int],
                                   None]] = None,
    ) -> list[CampaignRun]:
        """Run one submitted matrix; returns the runs in matrix order.

        Raises ``KeyError``/``TypeError``/``ValueError`` on a bad
        document (the session maps those onto ``ERR arg``).
        """
        specs, seeds, months, workers, supervision = self._validate(doc)
        total = len(specs) * len(seeds)
        counter = [0]

        def progress(run: CampaignRun, cached: bool) -> None:
            counter[0] += 1
            if on_cell is not None:
                on_cell(run, cached, counter[0], total)

        with self._lock:
            return run_campaigns(
                specs, seeds=seeds, workers=workers, months=months,
                store=self.store, resume=True, on_cell=progress,
                **supervision)

    def stored_runs(self) -> list[dict]:
        """Every archived cell as a JSON document (RPRT store answer)."""
        return [
            {"scenario": r.scenario, "seed": r.seed, "spec_hash": r.spec_hash,
             "error": r.error,
             "report": r.report.to_dict() if r.report is not None else None}
            for r in self.store.runs(disambiguate=False)
        ]

    def _validate(self, doc: dict):
        if not isinstance(doc, dict):
            raise TypeError("matrix document must be a JSON object")
        raw_specs = doc.get("scenarios")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise ValueError("'scenarios' must be a non-empty list")
        specs: list[ScenarioSpec] = []
        for item in raw_specs:
            if isinstance(item, str):
                specs.append(scenarios.get(item))  # KeyError lists presets
            elif isinstance(item, dict):
                specs.append(ScenarioSpec.from_dict(item))
            else:
                raise TypeError(
                    "each scenario must be a preset name or a spec object")
        for spec in specs:
            if not spec.name or any(ch.isspace() for ch in spec.name):
                raise ValueError(
                    f"scenario name {spec.name!r} not wire-safe")
        raw_seeds = doc.get("seeds", [0])
        if not isinstance(raw_seeds, list) or not raw_seeds:
            raise ValueError("'seeds' must be a non-empty list")
        seeds = [int(s) for s in raw_seeds]
        months = doc.get("months")
        if months is not None:
            months = float(months)
            if not months > 0:
                raise ValueError("'months' must be positive")
        workers = int(doc.get("workers", 1))
        if len(specs) * len(seeds) > MAX_CELLS:
            raise ValueError(
                f"matrix of {len(specs) * len(seeds)} cells exceeds the "
                f"{MAX_CELLS}-cell service limit")
        # Optional supervision knobs; run_campaigns checks their range.
        supervision: dict = {}
        if doc.get("cell_timeout_s") is not None:
            supervision["cell_timeout_s"] = float(doc["cell_timeout_s"])
        if doc.get("max_cell_attempts") is not None:
            supervision["max_cell_attempts"] = int(doc["max_cell_attempts"])
        return specs, seeds, months, workers, supervision
