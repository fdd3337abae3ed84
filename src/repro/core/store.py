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
offline and ``--repair`` rewrites it atomically keeping only verifiable
records; it also migrates records from before the checksum era once, by
checksumming them as it re-encodes them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
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

__all__ = ["CampaignStore", "StoredCell", "StoreFormatError",
           "StoreChecksumError", "StoreBackend", "JsonlBackend",
           "MemoryBackend", "FsckReport", "fsck_store", "cell_hash",
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
class StoredCell:
    """One archived matrix cell (a success or a recorded failure).

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
    def from_doc(cls, doc: dict) -> "StoredCell":
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


class StoreBackend:
    """Durable document transport behind :class:`CampaignStore`.

    The store owns the indexing, keying and record semantics; a backend
    only persists raw cell documents — replayed once at open, appended one
    at a time.  The JSONL file is the default; a sqlite or redis backend
    slots in here without touching any store caller.
    """

    #: Human-readable location (shown by the CLI and the service).
    location = "<backend>"

    def load(self) -> Iterator[dict]:
        """Yield every previously persisted document, oldest first."""
        raise NotImplementedError

    def append(self, doc: dict) -> None:
        """Durably persist one document before returning."""
        raise NotImplementedError


class JsonlBackend(StoreBackend):
    """The historical append-only JSONL file (flush + fsync per record)."""

    def __init__(self, path: Union[str, "os.PathLike[str]"]):
        self.path = os.fspath(path)
        self.location = self.path
        #: Unparseable (torn/garbled) lines seen by the last load.
        self.skipped_lines = 0
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)

    def load(self) -> Iterator[dict]:
        self.skipped_lines = 0

        def count(lineno: int, reason: str) -> None:
            self.skipped_lines += 1

        if os.path.exists(self.path):
            yield from iter_jsonl(self.path, on_skip=count)

    def append(self, doc: dict) -> None:
        append_jsonl(self.path, doc)


class MemoryBackend(StoreBackend):
    """Volatile in-process backend (tests, storeless service sessions)."""

    location = "<memory>"

    def __init__(self):
        self.docs: list[dict] = []

    def load(self) -> Iterator[dict]:
        return iter(list(self.docs))

    def append(self, doc: dict) -> None:
        self.docs.append(doc)


class CampaignStore:
    """Append-only archive of campaign cells, indexed in memory.

    Opening a store replays its backend into a ``key -> StoredCell`` index
    (last record wins, so re-running a cell simply supersedes it).  Every
    :meth:`record` append is durable before it returns — a crashed driver
    loses at most the cell it was executing, never a finished one.

    Constructed from a path (JSONL file, the historical behaviour) or any
    :class:`StoreBackend`.
    """

    def __init__(self, path_or_backend: Union[str, "os.PathLike[str]",
                                              StoreBackend]):
        if isinstance(path_or_backend, StoreBackend):
            self.backend = path_or_backend
        else:
            self.backend = JsonlBackend(path_or_backend)
        #: Back-compat: the JSONL path, or the backend's display location.
        self.path = getattr(self.backend, "path", self.backend.location)
        self._cells: dict[str, StoredCell] = {}
        #: Records skipped on load because their checksum failed.
        self.corrupt_records = 0
        #: Records skipped on load for any other damage (torn lines,
        #: missing/mistyped fields, non-record JSON).
        self.damaged_records = 0
        for doc in self.backend.load():
            if not isinstance(doc, dict):
                self.damaged_records += 1
                continue  # damaged record: JSON, but not one of ours
            try:
                cell = StoredCell.from_doc(doc)
            except StoreFormatError:
                raise  # a future format must not become silent data loss
            except StoreChecksumError:
                self.corrupt_records += 1
                continue  # provably-rotten record loses only itself
            except (KeyError, TypeError, ValueError):
                self.damaged_records += 1
                continue  # field-damaged record loses only itself
            self._cells[cell.key] = cell
        # Torn lines never reach the document loop; the backend counts
        # what it had to skip at the byte level.
        self.damaged_records += getattr(self.backend, "skipped_lines", 0)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, key: str) -> bool:
        return key in self._cells

    def get(self, key: str) -> Optional[StoredCell]:
        return self._cells.get(key)

    def cells(self) -> Iterator[StoredCell]:
        """All indexed cells (deduplicated, file order of last write)."""
        return iter(self._cells.values())

    def failures(self) -> list[StoredCell]:
        return [c for c in self._cells.values() if not c.ok]

    def scenarios(self) -> list[str]:
        """Distinct scenario names, sorted."""
        return sorted({c.scenario for c in self._cells.values()})

    # -- writes ----------------------------------------------------------------

    def record(self, cell: StoredCell) -> StoredCell:
        """Durably append one finished cell and index it."""
        self.backend.append(cell.to_doc())
        self._cells[cell.key] = cell
        return cell

    def record_success(self, spec: ScenarioSpec, seed: int,
                       report: CampaignReport,
                       months: Optional[float] = None,
                       spec_hash: Optional[str] = None) -> StoredCell:
        return self.record(self._make_cell(spec, seed, months, spec_hash,
                                           report=report))

    def record_failure(self, spec: ScenarioSpec, seed: int, error: str,
                       months: Optional[float] = None,
                       spec_hash: Optional[str] = None,
                       quarantined: bool = False) -> StoredCell:
        return self.record(self._make_cell(spec, seed, months, spec_hash,
                                           error=error,
                                           quarantined=quarantined))

    def _make_cell(self, spec: ScenarioSpec, seed: int,
                   months: Optional[float],
                   spec_hash: Optional[str] = None,
                   report: Optional[CampaignReport] = None,
                   error: Optional[str] = None,
                   quarantined: bool = False) -> StoredCell:
        effective = float(months) if months is not None else float(spec.months)
        if spec_hash is None:
            spec_hash = cell_hash(spec, months)
        # the archived spec must describe exactly what ran: fold in the
        # horizon override and the cell's seed (not the preset's default)
        doc = spec.to_dict()
        doc["months"] = effective
        doc["seed"] = seed
        return StoredCell(
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

    # -- interop ---------------------------------------------------------------

    def runs(self, scenarios: Optional[list[str]] = None,
             disambiguate: bool = True) -> "list[Any]":
        """Stored cells as :class:`~repro.core.batch.CampaignRun` values
        (sorted scenario-major, seed-minor — the matrix order
        ``run_campaigns`` returns), optionally filtered by scenario name.

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
        from .batch import CampaignRun  # local import avoids a cycle
        cells = [c for c in self._cells.values()
                 if scenarios is None or c.scenario in scenarios]
        variants: dict[str, dict[str, float]] = {}
        for c in cells:
            variants.setdefault(c.scenario, {})[c.spec_hash] = c.months

        def label(c: StoredCell) -> str:
            v = variants[c.scenario]
            if not disambiguate or len(v) == 1:
                return c.scenario
            if len(set(v.values())) == len(v):  # horizons tell them apart
                return f"{c.scenario}@{c.months:g}mo"
            return f"{c.scenario}#{c.spec_hash[:6]}"

        cells.sort(key=lambda c: (c.scenario, c.months, c.seed))
        return [CampaignRun(scenario=label(c), seed=c.seed, report=c.report,
                            spec_hash=c.spec_hash, error=c.error,
                            quarantined=c.quarantined)
                for c in cells]


# -- offline integrity audit ---------------------------------------------------


@dataclass
class FsckReport:
    """What :func:`fsck_store` found (and possibly fixed)."""

    total_lines: int = 0       # non-blank lines examined
    valid: int = 0             # verifiable records (checksum OK or legacy)
    legacy: int = 0            # of the valid: pre-checksum records, which
                               # load as damaged until a repair migrates them
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
            "legacy": self.legacy,
            "torn": self.torn,
            "checksum_failed": self.checksum_failed,
            "malformed": self.malformed,
            "version_skew": self.version_skew,
            "clean": self.clean,
            "repaired": self.repaired,
        }

    def __str__(self) -> str:
        verdict = "clean" if self.clean else "DAMAGED"
        parts = [f"{self.total_lines} lines: {self.valid} valid "
                 f"({self.legacy} legacy, now checksummed on repair)"]
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

    Every non-blank line is classified (see :class:`FsckReport`).  With
    ``repair=True`` and anything to fix — damage, or legacy records that
    would gain checksums — the file is atomically rewritten (tmp file +
    ``os.replace``, then a directory fsync) keeping verifiable records
    re-encoded in order;
    version-skew records are preserved verbatim (a newer tool owns them),
    damaged ones are dropped.  Without damage and without legacy records
    the file is left untouched.
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
            # A pre-checksum record is checksummed here, before decoding:
            # repair migrates it once; a plain load counts it damaged.
            legacy = "sum" not in doc
            if legacy:
                doc = dict(doc, sum=content_hash(doc))
            try:
                cell = StoredCell.from_doc(doc)
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
            report.legacy += legacy
            keep.append(canonical_json(cell.to_doc()))
    if repair and (not report.clean or report.legacy):
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
