"""Persistent campaign result store: one JSONL record per matrix cell.

A seed × scenario sweep is only trustworthy if it can be *interrupted*: a
laptop sleeps, a worker segfaults, a cluster job hits its walltime.  The
:class:`CampaignStore` archives every finished cell of
:func:`~repro.core.batch.run_campaigns` as one appended JSON line, so a
re-run with ``resume=True`` pays only for the cells that are missing (or
previously crashed) — the same cell-level checkpointing idea malleable-job
schedulers use to survive shrinking allocations.

Cells are keyed by ``(spec content hash, seed, months)``:

* the **spec hash** covers every declarative knob of the *effective*
  scenario (after any ``months=`` override) except the seed — changing
  any knob, including the name, moves the cell to a fresh slot, so two
  different worlds can never collide on one archived result;
* **seed** and the effective **months** horizon complete the key.

Records carry the full spec document next to the report, so ``repro-campaign
report``/``compare`` can audit exactly what ran without the original preset
code.  Appends are flushed + fsynced; a torn line from a killed process is
sealed by the next append and loses only itself on load.

Integrity: every record carries a ``sum`` field — the content hash of
the rest of the document.  A record whose checksum no longer matches
(bit rot, a partial overwrite, a hand edit) is skipped and counted on
load (:attr:`CampaignStore.corrupt_records`), never trusted; a record
with no ``sum`` at all counts as damaged
(:attr:`CampaignStore.damaged_records`), so a flipped bit in the key name
cannot turn verification off.  :func:`fsck_store` audits an archive
offline by the same rule a load applies, and ``--repair`` rewrites it
atomically keeping only verifiable records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Any, Iterator, Optional, Union

from ..scenarios.spec import ScenarioSpec
from ..util.serialization import (
    append_jsonl,
    canonical_json,
    content_hash,
    fsync_dir,
    iter_jsonl,
)
from .campaign import CampaignReport

__all__ = ["CampaignStore", "CampaignRun", "StoreFormatError",
           "StoreChecksumError", "FsckReport", "fsck_store", "cell_hash",
           "cell_key", "format_cell_key"]

#: Record-format version, bumped on incompatible layout changes.
_FORMAT = 1


class StoreFormatError(ValueError):
    """A record written by an incompatible (newer) store format.

    Distinct from generic record damage: damaged records lose only
    themselves on load, a format mismatch must abort loudly rather than
    silently dropping a whole archive's worth of cells.
    """


class StoreChecksumError(ValueError):
    """A record whose ``sum`` field does not match its content.

    The bytes parsed as JSON but are provably not what was written —
    corruption, not version drift.  Skipped and counted on load."""


def cell_hash(spec: ScenarioSpec, months: Optional[float] = None) -> str:
    """Seed-independent content hash of the effective scenario.

    ``months`` (the matrix-wide horizon override) is folded in before
    hashing, so a preset with ``months=5`` run at ``months=0.5`` and a
    preset natively declaring ``months=0.5`` share cells.
    """
    doc = spec.to_dict()
    if months is not None:
        doc["months"] = float(months)
    doc.pop("seed", None)
    return content_hash(doc)


def format_cell_key(spec_hash: str, seed: int, months: float) -> str:
    """Canonical ``<spec-hash>:<seed>:<months>`` key of one matrix cell
    (for callers that already hold the spec hash — the batch engine hashes
    each spec once and reuses it across the whole seed row)."""
    return f"{spec_hash}:{seed}:{float(months):g}"


def cell_key(spec: ScenarioSpec, seed: int, months: Optional[float] = None) -> str:
    """Canonical key of one matrix cell, hashed from the spec."""
    effective = float(months) if months is not None else float(spec.months)
    return format_cell_key(cell_hash(spec, months), seed, effective)


@dataclass(frozen=True)
class CampaignRun:
    """One finished (scenario, seed) cell of a campaign matrix.

    ``report`` is ``None`` when the cell failed; ``error`` then carries
    the worker's traceback.  ``spec_hash`` is the seed-independent content
    hash of the effective scenario (:func:`cell_hash`) — it is what lets
    :func:`~repro.core.batch.aggregate_runs` detect two *different* specs
    masquerading under one name.  ``spec`` is the document of exactly
    what ran (horizon override and cell seed folded in).
    ``quarantined`` marks a poison cell: it failed every one of several
    attempts (or ran past its deadline), so ``resume`` must *not* retry
    it — unlike an ordinary recorded failure, which resume heals.
    """

    key: str
    spec_hash: str
    scenario: str
    seed: int
    months: float
    spec: dict
    report: Optional[CampaignReport] = None
    error: Optional[str] = None
    quarantined: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.report is not None

    @property
    def error_summary(self) -> str:
        """Last line of the captured traceback (the exception itself)."""
        lines = (self.error or "").strip().splitlines()
        return lines[-1] if lines else "unknown error"

    def result_doc(self) -> dict:
        """The cell as ``--json`` and ``RPRT store`` print it."""
        return {"scenario": self.scenario, "seed": self.seed,
                "spec_hash": self.spec_hash, "error": self.error,
                "report": (self.report.to_dict()
                           if self.report is not None else None)}

    def to_doc(self) -> dict:
        doc = {
            "v": _FORMAT,
            "key": self.key,
            "spec_hash": self.spec_hash,
            "scenario": self.scenario,
            "seed": self.seed,
            "months": self.months,
            "spec": self.spec,
            "status": "ok" if self.ok else "error",
            "report": self.report.to_dict() if self.report is not None else None,
            "error": self.error,
            "quarantined": self.quarantined,
        }
        # Written last, over everything above: the record carries the
        # proof of its own integrity.
        doc["sum"] = content_hash(doc)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "CampaignRun":
        if doc.get("v") != _FORMAT:
            raise StoreFormatError(
                f"unsupported store record version {doc.get('v')!r}")
        checksum = doc["sum"]
        body = {k: v for k, v in doc.items() if k != "sum"}
        actual = content_hash(body)
        if actual != checksum:
            raise StoreChecksumError(
                f"record checksum mismatch for key "
                f"{doc.get('key')!r}: stored {checksum}, "
                f"content hashes to {actual}")
        report_doc = doc.get("report")
        return cls(
            key=doc["key"],
            spec_hash=doc["spec_hash"],
            scenario=doc["scenario"],
            seed=int(doc["seed"]),
            months=float(doc["months"]),
            spec=doc["spec"],
            report=(CampaignReport.from_dict(report_doc)
                    if report_doc is not None else None),
            error=doc.get("error"),
            quarantined=bool(doc.get("quarantined", False)),
        )


class CampaignStore:
    """Append-only archive of campaign cells, indexed in memory.

    Opened on a path, the store replays that JSONL file into a
    ``key -> CampaignRun`` index (last record wins, so re-running a cell
    simply supersedes it), and every append is flushed and fsynced before
    it returns — a crashed driver loses at most the cell it was executing,
    never a finished one.  With no path the store lives in memory only
    (a batch run without an archive, storeless service sessions).
    """

    def __init__(self, path: Union[str, "os.PathLike[str]", None] = None):
        #: The JSONL file, or None for an in-memory store.
        self.path = None if path is None else os.fspath(path)
        self._cells: dict[str, CampaignRun] = {}
        #: Records skipped on load because their checksum failed.
        self.corrupt_records = 0
        #: Records skipped on load for any other damage (torn lines,
        #: missing/mistyped fields, non-record JSON).
        self.damaged_records = 0
        if self.path is None:
            return
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        if os.path.exists(self.path):
            for doc in iter_jsonl(self.path, on_skip=self._count_damaged):
                self._index(doc)

    def _count_damaged(self, lineno: int, reason: str) -> None:
        self.damaged_records += 1  # a torn or garbled line

    def _index(self, doc: Any) -> None:
        if not isinstance(doc, dict):
            self.damaged_records += 1
            return  # damaged record: JSON, but not one of ours
        try:
            cell = CampaignRun.from_doc(doc)
        except StoreFormatError:
            raise  # a future format must not become silent data loss
        except StoreChecksumError:
            self.corrupt_records += 1
            return  # provably-rotten record loses only itself
        except (KeyError, TypeError, ValueError):
            self.damaged_records += 1
            return  # field-damaged record loses only itself
        self._cells[cell.key] = cell

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, key: str) -> bool:
        return key in self._cells

    def get(self, key: str) -> Optional[CampaignRun]:
        return self._cells.get(key)

    def cells(self) -> Iterator[CampaignRun]:
        """All indexed cells (deduplicated, file order of last write)."""
        return iter(self._cells.values())

    def scenarios(self) -> list[str]:
        """Distinct scenario names, sorted."""
        return sorted({c.scenario for c in self._cells.values()})

    # -- writes ----------------------------------------------------------------

    def record_success(self, spec: ScenarioSpec, seed: int,
                       report: CampaignReport,
                       months: Optional[float] = None,
                       spec_hash: Optional[str] = None) -> CampaignRun:
        return self._record(spec, seed, months, spec_hash, report=report)

    def record_failure(self, spec: ScenarioSpec, seed: int, error: str,
                       months: Optional[float] = None,
                       spec_hash: Optional[str] = None,
                       quarantined: bool = False) -> CampaignRun:
        return self._record(spec, seed, months, spec_hash, error=error,
                            quarantined=quarantined)

    def _record(self, spec: ScenarioSpec, seed: int,
                months: Optional[float], spec_hash: Optional[str],
                report: Optional[CampaignReport] = None,
                error: Optional[str] = None,
                quarantined: bool = False) -> CampaignRun:
        """Durably append one finished cell, index it and return it."""
        effective = float(months) if months is not None else float(spec.months)
        if spec_hash is None:
            spec_hash = cell_hash(spec, months)
        # the archived spec must describe exactly what ran: fold in the
        # horizon override and the cell's seed (not the preset's default)
        doc = spec.to_dict()
        doc["months"] = effective
        doc["seed"] = seed
        cell = CampaignRun(
            key=format_cell_key(spec_hash, seed, effective),
            spec_hash=spec_hash,
            scenario=spec.name,
            seed=seed,
            months=effective,
            spec=doc,
            report=report,
            error=error,
            quarantined=quarantined,
        )
        if self.path is not None:
            append_jsonl(self.path, cell.to_doc())
        self._cells[cell.key] = cell
        return cell

    # -- interop ---------------------------------------------------------------

    def runs(self, scenarios: Optional[list[str]] = None,
             disambiguate: bool = True) -> list[CampaignRun]:
        """Stored cells sorted scenario-major, seed-minor (the matrix
        order ``run_campaigns`` returns), optionally filtered by scenario
        name.

        A store legitimately holds one scenario name at several variants
        (most commonly different ``--months`` horizons — distinct cells by
        design).  With ``disambiguate=True`` those get display names
        (``name@0.5mo``, or ``name#<hash>`` when the horizons coincide) so
        that ``aggregate_runs`` groups each variant separately instead of
        refusing the whole archive.  Pass ``disambiguate=False`` for
        machine consumers that join on the original name — display labels
        would retroactively change when new variants are appended, the
        stored names and ``spec_hash`` never do.
        """
        cells = [c for c in self._cells.values()
                 if scenarios is None or c.scenario in scenarios]
        variants: dict[str, dict[str, float]] = {}
        for c in cells:
            variants.setdefault(c.scenario, {})[c.spec_hash] = c.months

        def label(c: CampaignRun) -> str:
            v = variants[c.scenario]
            if not disambiguate or len(v) == 1:
                return c.scenario
            if len(set(v.values())) == len(v):  # horizons tell them apart
                return f"{c.scenario}@{c.months:g}mo"
            return f"{c.scenario}#{c.spec_hash[:6]}"

        cells.sort(key=lambda c: (c.scenario, c.months, c.seed))
        return [replace(c, scenario=label(c)) for c in cells]


# -- offline integrity audit ---------------------------------------------------


@dataclass
class FsckReport:
    """What :func:`fsck_store` found (and possibly fixed)."""

    total_lines: int = 0       # non-blank lines examined
    valid: int = 0             # verifiable records (checksum OK)
    torn: int = 0              # unparseable lines (torn tails, bit rot)
    checksum_failed: int = 0   # parsed, but the checksum disagrees
    malformed: int = 0         # parsed JSON that is not a store record
    version_skew: int = 0      # records from a newer store format
    repaired: bool = False

    @property
    def clean(self) -> bool:
        """No damage (version-skew records are foreign, not damaged)."""
        return (self.torn == 0 and self.checksum_failed == 0
                and self.malformed == 0)

    def to_doc(self) -> dict:
        return {
            "total_lines": self.total_lines,
            "valid": self.valid,
            "torn": self.torn,
            "checksum_failed": self.checksum_failed,
            "malformed": self.malformed,
            "version_skew": self.version_skew,
            "clean": self.clean,
            "repaired": self.repaired,
        }

    def __str__(self) -> str:
        verdict = "clean" if self.clean else "DAMAGED"
        parts = [f"{self.total_lines} lines: {self.valid} valid"]
        for label, n in (("torn", self.torn),
                         ("checksum-failed", self.checksum_failed),
                         ("malformed", self.malformed),
                         ("version-skew", self.version_skew)):
            if n:
                parts.append(f"{n} {label}")
        suffix = " [repaired]" if self.repaired else ""
        return f"{verdict}: " + ", ".join(parts) + suffix


def fsck_store(path: Union[str, "os.PathLike[str]"],
               repair: bool = False) -> FsckReport:
    """Audit a JSONL campaign store; optionally rewrite it clean.

    Every non-blank line is classified (see :class:`FsckReport`) by the
    rule a load applies, so a record a load would skip — a record with no
    ``sum`` included — is damage here too.  With ``repair=True`` and
    damage found, the file is atomically rewritten (tmp file +
    ``os.replace``, then a directory fsync) keeping verifiable records
    re-encoded in order; version-skew records are preserved verbatim (a
    newer tool owns them), damaged ones are dropped.  A clean file is
    left untouched.
    """
    path = os.fspath(path)
    report = FsckReport()
    keep: list[str] = []
    # errors="replace": classify bit-rotten lines instead of crashing.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            report.total_lines += 1
            try:
                doc = json.loads(stripped)
            except json.JSONDecodeError:
                report.torn += 1
                continue
            if not isinstance(doc, dict):
                report.malformed += 1
                continue
            try:
                cell = CampaignRun.from_doc(doc)
            except StoreChecksumError:
                report.checksum_failed += 1
                continue
            except StoreFormatError:
                report.version_skew += 1
                keep.append(stripped)  # foreign, preserved verbatim
                continue
            except (KeyError, TypeError, ValueError):
                report.malformed += 1
                continue
            report.valid += 1
            keep.append(canonical_json(cell.to_doc()))
    if repair and not report.clean:
        tmp = path + ".fsck-tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in keep:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(path)
        report.repaired = True
    return report
