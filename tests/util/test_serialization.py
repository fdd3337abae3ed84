"""Unit tests for canonical JSON and deep diffing."""

from repro.util import (
    canonical_json,
    content_hash,
    decode_dataclass,
    deep_diff,
    deep_get,
    encode_dataclass,
)


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_content_hash_stable_under_key_order():
    assert content_hash({"x": 1, "y": [1, 2]}) == content_hash({"y": [1, 2], "x": 1})


def test_content_hash_changes_with_content():
    assert content_hash({"x": 1}) != content_hash({"x": 2})


def test_diff_identical_is_empty():
    doc = {"a": {"b": [1, 2, {"c": 3}]}}
    assert deep_diff(doc, doc) == []


def test_diff_changed_scalar():
    (entry,) = deep_diff({"a": 1}, {"a": 2})
    assert (entry.path, entry.kind, entry.old, entry.new) == ("a", "changed", 1, 2)


def test_diff_added_and_removed_keys():
    entries = deep_diff({"a": 1}, {"b": 2})
    kinds = {e.path: e.kind for e in entries}
    assert kinds == {"a": "removed", "b": "added"}


def test_diff_nested_path():
    (entry,) = deep_diff({"cpu": {"freq": 2.2}}, {"cpu": {"freq": 2.4}})
    assert entry.path == "cpu.freq"


def test_diff_list_element():
    (entry,) = deep_diff({"disks": [{"fw": "A1"}]}, {"disks": [{"fw": "B2"}]})
    assert entry.path == "disks[0].fw"


def test_diff_list_length_change():
    entries = deep_diff({"d": [1]}, {"d": [1, 2]})
    assert [(e.path, e.kind) for e in entries] == [("d[1]", "added")]


def test_diff_type_change_is_changed():
    (entry,) = deep_diff({"v": 1}, {"v": "1"})
    assert entry.kind == "changed"


def test_diff_str_rendering():
    entries = deep_diff({"a": 1, "b": 2}, {"a": 3, "c": 4})
    rendered = sorted(str(e)[0] for e in entries)
    assert rendered == ["+", "-", "~"]


def test_deep_get_simple():
    assert deep_get({"a": {"b": 5}}, "a.b") == 5


def test_deep_get_list_index():
    assert deep_get({"a": {"b": [10, 20]}}, "a.b[1]") == 20


def test_deep_get_nested_lists():
    assert deep_get({"m": [[1, 2], [3, 4]]}, "m[1][0]") == 3


def test_deep_get_missing_returns_default():
    assert deep_get({"a": 1}, "a.b.c", default="missing") == "missing"
    assert deep_get({"a": [1]}, "a[5]", default=None) is None


def test_deep_get_path_from_diff_round_trip():
    old = {"node": {"disks": [{"firmware": "GA07"}], "ram_gb": 64}}
    new = {"node": {"disks": [{"firmware": "GA09"}], "ram_gb": 64}}
    (entry,) = deep_diff(old, new)
    assert deep_get(old, entry.path) == "GA07"
    assert deep_get(new, entry.path) == "GA09"


# -- dataclass codec -----------------------------------------------------------


def test_encode_decode_nested_dataclass():
    from dataclasses import dataclass, field
    from typing import Optional

    from repro.util import decode_dataclass, encode_dataclass

    @dataclass(frozen=True)
    class Inner:
        rate: float = 1.0
        on: bool = True

    @dataclass(frozen=True)
    class Outer:
        name: str = "x"
        tags: Optional[tuple[str, ...]] = None
        inner: Inner = field(default_factory=Inner)

    outer = Outer(name="y", tags=("a", "b"), inner=Inner(rate=2.5, on=False))
    doc = encode_dataclass(outer)
    assert doc == {"name": "y", "tags": ["a", "b"],
                   "inner": {"rate": 2.5, "on": False}}
    again = decode_dataclass(Outer, doc)
    assert again == outer
    assert isinstance(again.tags, tuple)
    assert isinstance(again.inner, Inner)


def test_decode_promotes_int_to_float():
    from dataclasses import dataclass

    from repro.util import decode_dataclass

    @dataclass(frozen=True)
    class Cfg:
        ratio: float = 0.5

    cfg = decode_dataclass(Cfg, {"ratio": 2})
    assert cfg.ratio == 2.0 and isinstance(cfg.ratio, float)


def test_decode_rejects_unknown_and_mistyped():
    from dataclasses import dataclass

    import pytest

    from repro.util import decode_dataclass

    @dataclass(frozen=True)
    class Cfg:
        count: int = 1

    with pytest.raises(ValueError, match="bogus"):
        decode_dataclass(Cfg, {"bogus": 3})
    with pytest.raises(ValueError, match="expected int"):
        decode_dataclass(Cfg, {"count": "three"})
    with pytest.raises(ValueError, match="expected int"):
        decode_dataclass(Cfg, {"count": True})  # bool is not an int here


def test_dict_keys_round_trip_by_annotation():
    from dataclasses import dataclass, field

    from repro.util import decode_dataclass, encode_dataclass

    @dataclass(frozen=True)
    class Weights:
        by_rank: dict[int, float] = field(default_factory=dict)

    w = Weights(by_rank={1: 2.0, 7: 0.5})
    doc = encode_dataclass(w)
    assert doc == {"by_rank": {"1": 2.0, "7": 0.5}}  # JSON keys are strings
    assert decode_dataclass(Weights, doc) == w


def test_encode_normalizes_int_valued_float_fields():
    # months=1 and months=1.0 must produce identical documents (and so
    # identical content hashes / campaign-store cells)
    import dataclasses as dc

    @dc.dataclass
    class Cfg:
        months: float = 5.0
        count: int = 3

    a, b = Cfg(months=1), Cfg(months=1.0)
    assert encode_dataclass(a) == encode_dataclass(b)
    assert canonical_json(encode_dataclass(a)) == \
        canonical_json(encode_dataclass(b))
    assert isinstance(encode_dataclass(a)["months"], float)
    assert isinstance(encode_dataclass(a)["count"], int)  # ints untouched


def test_nan_encodes_as_null_and_decodes_back():
    import dataclasses as dc
    import json
    import math

    @dc.dataclass
    class Metrics:
        latency: float = 0.0

    doc = encode_dataclass(Metrics(latency=float("nan")))
    assert doc["latency"] is None
    # strict parsers accept the document
    json.loads(json.dumps(doc, allow_nan=False))
    back = decode_dataclass(Metrics, doc)
    assert math.isnan(back.latency)


def test_append_jsonl_seals_torn_tail(tmp_path):
    from repro.util import append_jsonl, iter_jsonl

    path = tmp_path / "log.jsonl"
    append_jsonl(path, {"n": 1})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"torn')  # killed mid-append, no newline
    append_jsonl(path, {"n": 2})
    assert [d for d in iter_jsonl(path)] == [{"n": 1}, {"n": 2}]


def _record_fsyncs(monkeypatch):
    """Spy on os.fsync: one flag per call, True when the fd is a directory."""
    import os
    import stat

    synced = []
    real = os.fsync

    def spy(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return synced


def test_append_jsonl_fsyncs_directory_when_creating_the_file(tmp_path,
                                                              monkeypatch):
    from repro.util import append_jsonl

    synced = _record_fsyncs(monkeypatch)
    path = tmp_path / "new.jsonl"
    append_jsonl(path, {"n": 1})
    assert synced == [False, True]  # the record, then its directory entry
    synced.clear()
    append_jsonl(path, {"n": 2})
    assert synced == [False]  # the entry already exists
