"""Store integrity under torn tails, mid-file corruption, and fsck.

Satellite of the resilience PR: whatever byte-level damage a JSONL
archive takes — truncation at or inside any record boundary, flipped
bytes in any record — loading never crashes, every surviving record is
intact, and the loss is *counted* (``corrupt_records`` for checksum
failures, ``damaged_records`` for everything torn or malformed).
``fsck_store`` classifies the same damage offline, by the rule a load
applies, and ``--repair`` rewrites the archive atomically.
"""

import json

import pytest

from repro import run_scenario, scenarios
from repro.core.store import CampaignStore, StoreFormatError, fsck_store

MONTHS = 0.03
SPEC = scenarios.get("tiny-smoke")


@pytest.fixture(scope="module")
def report():
    _, rep = run_scenario(SPEC, seed=0, months=MONTHS)
    return rep


@pytest.fixture()
def store_path(tmp_path, report):
    """Three finished cells: a success, a failure, a quarantined cell."""
    path = tmp_path / "store.jsonl"
    store = CampaignStore(str(path))
    store.record_success(SPEC, 0, report, months=MONTHS)
    store.record_failure(SPEC, 1, "boom", months=MONTHS)
    store.record_failure(SPEC, 2, "hung past watchdog", months=MONTHS,
                         quarantined=True)
    return path


def _line_spans(data: bytes) -> list:
    """(start, end) byte offsets of every line, end including newline."""
    spans, start = [], 0
    while start < len(data):
        end = data.index(b"\n", start) + 1
        spans.append((start, end))
        start = end
    return spans


def test_truncation_at_and_inside_every_record_boundary(store_path):
    """Cutting the file anywhere loses at most the cut record."""
    data = store_path.read_bytes()
    spans = _line_spans(data)
    assert len(spans) == 3
    for i, (start, end) in enumerate(spans):
        length = end - start
        cuts = {
            start: (i, 0),                   # clean boundary
            start + 1: (i, 1),               # 1 byte of a torn record
            start + length // 2: (i, 1),     # torn mid-record
            end - 1: (i + 1, 0),             # newline-less: still parses
        }
        for offset, (whole, torn) in cuts.items():
            store_path.write_bytes(data[:offset])
            store = CampaignStore(str(store_path))
            assert len(store) == whole, f"cut at byte {offset}"
            assert store.corrupt_records == 0
            assert store.damaged_records == torn, f"cut at byte {offset}"
    # full file sanity: everything loads, nothing counted
    store_path.write_bytes(data)
    store = CampaignStore(str(store_path))
    assert len(store) == 3
    assert store.corrupt_records == 0 and store.damaged_records == 0


def test_byte_flip_in_any_record_loses_only_that_record(store_path):
    data = store_path.read_bytes()
    spans = _line_spans(data)
    for start, end in spans:
        mid = start + (end - start) // 2
        flipped = data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1:]
        store_path.write_bytes(flipped)
        store = CampaignStore(str(store_path))
        assert len(store) == 2, f"flip at byte {mid}"
        # a flip either breaks the JSON (damaged) or survives parsing and
        # fails the checksum (corrupt) — either way it is counted once
        assert store.corrupt_records + store.damaged_records == 1
        surviving = {c.seed for c in store.cells()}
        assert len(surviving) == 2 and surviving < {0, 1, 2}


def test_mid_file_corruption_after_a_sealing_append(store_path, report):
    """Damage in the middle of the archive, with intact records after."""
    data = store_path.read_bytes()
    start, end = _line_spans(data)[1]
    mid = start + (end - start) // 2
    store_path.write_bytes(data[:mid] + bytes([data[mid] ^ 0xFF])
                           + data[mid + 1:])
    # a later append must not be confused by earlier damage
    CampaignStore(str(store_path)).record_success(
        SPEC, 7, report, months=MONTHS)
    store = CampaignStore(str(store_path))
    assert {c.seed for c in store.cells()} == {0, 2, 7}
    assert store.corrupt_records + store.damaged_records == 1


def test_checksum_mismatch_is_counted_as_corrupt(store_path):
    """A hand-edited record (valid JSON, stale sum) is provably rotten."""
    lines = store_path.read_text().splitlines()
    doc = json.loads(lines[1])
    doc["error"] = "tampered"
    lines[1] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    store_path.write_text("\n".join(lines) + "\n")
    store = CampaignStore(str(store_path))
    assert store.corrupt_records == 1 and store.damaged_records == 0
    assert {c.seed for c in store.cells()} == {0, 2}


def test_record_without_sum_is_damage_to_load_and_fsck_alike(store_path):
    """A record without ``sum`` is untrusted — a flipped bit in the key
    name must not turn verification off — and fsck judges it by the same
    rule: malformed, not clean, dropped by ``--repair``."""
    lines = store_path.read_text().splitlines()
    doc = json.loads(lines[0])
    del doc["sum"]
    lines[0] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    store_path.write_text("\n".join(lines) + "\n")
    store = CampaignStore(str(store_path))
    assert len(store) == 2, "an unchecksummed record is not trusted"
    assert store.corrupt_records == 0 and store.damaged_records == 1
    audit = fsck_store(store_path)
    assert not audit.clean and audit.malformed == 1 and audit.valid == 2
    assert fsck_store(store_path, repair=True).repaired
    after = fsck_store(store_path)
    assert after.clean and after.total_lines == 2 and after.valid == 2
    reloaded = CampaignStore(str(store_path))
    assert len(reloaded) == 2 and reloaded.damaged_records == 0
    assert {c.seed for c in reloaded.cells()} == {1, 2}


def test_flipped_sum_key_counts_as_damage(store_path):
    data = store_path.read_bytes()
    assert data.count(b'"sum":') == 3
    store_path.write_bytes(data.replace(b'"sum":', b'"sUm":', 1))
    store = CampaignStore(str(store_path))
    assert len(store) == 2 and store.damaged_records == 1


def test_repair_fsyncs_the_directory_after_replace(store_path, monkeypatch):
    import os
    import stat

    synced = []
    real = os.fsync

    def spy(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real(fd)

    with open(store_path, "ab") as fh:
        fh.write(b'{"half a rec')
    monkeypatch.setattr(os, "fsync", spy)
    assert fsck_store(store_path, repair=True).repaired
    assert synced == [False, True]  # the rewritten file, then the rename


def test_fsck_classifies_and_repair_drops_only_damage(store_path):
    data = store_path.read_bytes()
    spans = _line_spans(data)
    start, end = spans[1]
    mid = start + (end - start) // 2
    body = (data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1:]
            + b"{torn and never sealed"
            + b"\n[1,2,3]\n"
            + b'{"v": 99, "from": "the future"}\n')
    store_path.write_bytes(body)
    audit = fsck_store(store_path)
    assert not audit.clean
    assert audit.total_lines == 6
    assert audit.valid == 2
    # the flip lands on either side of the parse/checksum divide
    assert audit.torn + audit.checksum_failed == 2
    assert audit.malformed == 1
    assert audit.version_skew == 1
    fixed = fsck_store(store_path, repair=True)
    assert fixed.repaired
    after = fsck_store(store_path)
    assert after.clean and after.valid == 2 and after.version_skew == 1
    # the foreign (version-skew) record is preserved verbatim — and the
    # current-format loader still refuses it loudly (silent drop of a
    # newer tool's records would be data loss, not resilience)
    assert '{"v": 99, "from": "the future"}' in store_path.read_text()
    with pytest.raises(StoreFormatError):
        CampaignStore(str(store_path))


def test_repair_preserves_reports_and_quarantine_bit(store_path):
    before = {c.seed: c for c in CampaignStore(str(store_path)).cells()}
    fsck_store(store_path, repair=True)  # no-op rewrite path guard
    # append a torn tail, then repair for real
    with open(store_path, "ab") as fh:
        fh.write(b'{"half a rec')
    assert fsck_store(store_path, repair=True).repaired
    after = {c.seed: c for c in CampaignStore(str(store_path)).cells()}
    assert set(after) == set(before)
    assert after[0].report.to_dict() == before[0].report.to_dict()
    assert after[2].quarantined and after[2].error == "hung past watchdog"
    assert not after[1].quarantined and after[1].error == "boom"
