"""Canonical JSON helpers and structural diffing.

The Reference API stores node/cluster/site descriptions as plain JSON
documents (the paper stresses the "machine-parsable format").  This module
provides the canonical encoding used for hashing/archiving, plus a deep
structural diff used both by the Reference API version history and by
g5k-checks when comparing acquired facts against the reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import types
import typing
from dataclasses import dataclass
from typing import Any, Iterator, Type, TypeVar, Union

__all__ = [
    "canonical_json",
    "content_hash",
    "DiffEntry",
    "deep_diff",
    "encode_dataclass",
    "decode_dataclass",
    "append_jsonl",
    "fsync_dir",
    "iter_jsonl",
]


def canonical_json(doc: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_hash(doc: Any) -> str:
    """Short stable content hash of a JSON document."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:16]


# -- dataclass <-> JSON document codec ----------------------------------------
#
# Declarative configuration (ScenarioSpec and its nested policy/workload
# dataclasses) must survive a JSON round-trip *exactly* — tuples come back
# as tuples, nested dataclasses as the right type — so that
# ``decode_dataclass(cls, encode_dataclass(x)) == x`` holds and scenario
# files can be hashed with :func:`content_hash`.
#
# Two normalizations keep the documents canonical and strictly JSON:
#
# * int values in float-typed fields encode as floats, so
#   ``ScenarioSpec(months=1)`` and ``ScenarioSpec(months=1.0)`` produce the
#   same document — and therefore the same content hash / store cell;
# * float NaN encodes as ``null`` (bare ``NaN`` tokens are not RFC-8259
#   JSON and break jq/JS parsers); ``null`` in a plain ``float`` field
#   decodes back to NaN.  Caveat: in an ``Optional[float]`` field ``null``
#   is ambiguous and decodes to None — NaN does not survive a round-trip
#   there, so keep NaN-able metrics typed as plain ``float``.

_T = TypeVar("_T")

#: Per-class cache of which field names are float-typed (incl. Optional).
_FLOAT_FIELDS: dict[type, frozenset] = {}


def _float_fields(cls: type) -> frozenset:
    cached = _FLOAT_FIELDS.get(cls)
    if cached is None:
        hints = typing.get_type_hints(cls)
        names = set()
        for f in dataclasses.fields(cls):
            hint = hints.get(f.name)
            if hint is float:
                names.add(f.name)
            else:
                origin = typing.get_origin(hint)
                if (origin is Union
                        or isinstance(hint, getattr(types, "UnionType", ()))):
                    if float in typing.get_args(hint):
                        names.add(f.name)
        cached = _FLOAT_FIELDS[cls] = frozenset(names)
    return cached


def encode_dataclass(obj: Any) -> Any:
    """Recursively convert a dataclass instance to a JSON-able document."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        floats = _float_fields(type(obj))
        doc = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if (f.name in floats and isinstance(value, int)
                    and not isinstance(value, bool)):
                value = float(value)
            doc[f.name] = encode_dataclass(value)
        return doc
    if isinstance(obj, (list, tuple)):
        return [encode_dataclass(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): encode_dataclass(v) for k, v in obj.items()}
    if isinstance(obj, float) and obj != obj:  # NaN -> null
        return None
    return obj


def _decode_key(hint: Any, key: str) -> Any:
    """Undo encode_dataclass's str() coercion of dict keys."""
    if hint is Any or hint is str:
        return key
    if hint is int:
        return int(key)
    if hint is float:
        return float(key)
    raise ValueError(f"unsupported dict key type {hint!r} (JSON keys are "
                     "strings; only str/int/float keys round-trip)")


def _decode_value(hint: Any, value: Any) -> Any:
    origin = typing.get_origin(hint)
    # types.UnionType (PEP 604 `X | Y`) only exists on Python >= 3.10
    if origin is Union or isinstance(hint, getattr(types, "UnionType", ())):
        arms = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None:
            return None
        for arm in arms:
            try:
                return _decode_value(arm, value)
            except (TypeError, ValueError):
                continue
        raise ValueError(f"cannot decode {value!r} as {hint}")
    if dataclasses.is_dataclass(hint):
        return decode_dataclass(hint, value)
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode_value(args[0], v) for v in value)
        return tuple(_decode_value(a, v) for a, v in zip(args, value))
    if origin is list:
        (arm,) = typing.get_args(hint) or (Any,)
        return [_decode_value(arm, v) for v in value]
    if origin is dict:
        args = typing.get_args(hint)
        key_arm = args[0] if len(args) == 2 else Any
        val_arm = args[1] if len(args) == 2 else Any
        return {_decode_key(key_arm, k): _decode_value(val_arm, v)
                for k, v in value.items()}
    if hint is float and value is None:
        return float("nan")  # NaN encodes as null (strict JSON has no NaN)
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if hint is int and isinstance(value, bool):
        raise ValueError(f"expected int, got {value!r}")
    if isinstance(hint, type) and not isinstance(value, hint):
        raise ValueError(f"expected {hint.__name__}, got {value!r}")
    return value


def decode_dataclass(cls: Type[_T], data: Any) -> _T:
    """Rebuild a (possibly nested) dataclass from :func:`encode_dataclass`
    output, honouring the class's type annotations.

    Unknown keys raise ``ValueError`` — a typo in a scenario file should be
    a loud error, not a silently-ignored knob.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a mapping for {cls.__name__}, got {data!r}")
    hints = typing.get_type_hints(cls)
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - field_names
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {', '.join(sorted(unknown))}")
    kwargs = {
        name: _decode_value(hints[name], value) for name, value in data.items()
    }
    return cls(**kwargs)


# -- JSON-lines persistence ----------------------------------------------------
#
# The campaign result store appends one record per finished cell; JSONL keeps
# every append an O(1) crash-safe operation (a torn final line from a killed
# process is skipped on read instead of corrupting the whole archive).


def fsync_dir(path: Union[str, "os.PathLike[str]"]) -> None:
    """fsync the directory holding ``path``.

    A file's own fsync does not persist its directory entry: a file just
    created (or renamed into place) can vanish in a crash until its
    directory is synced too.
    """
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def append_jsonl(path: Union[str, "os.PathLike[str]"], doc: Any) -> None:
    """Append one JSON document as a single line, flushed + fsynced.

    If the file's last byte is not a newline (a writer was killed
    mid-append), the torn line is sealed with a newline first so the new
    record cannot be glued onto the partial one.  The append that starts
    the file also syncs its directory entry.
    """
    # allow_nan=False keeps the archive strict RFC-8259 JSON (jq-safe);
    # NaN metrics must be mapped to null upstream (encode_dataclass does).
    line = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    with open(path, "a+b") as fh:
        fh.seek(0, os.SEEK_END)
        new = fh.tell() == 0
        if not new:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
        fh.write(line.encode("utf-8") + b"\n")
        fh.flush()
        os.fsync(fh.fileno())
    if new:
        fsync_dir(path)


def iter_jsonl(path: Union[str, "os.PathLike[str]"],
               on_skip: Any = None) -> Iterator[Any]:
    """Yield documents from a JSONL file, skipping blank or damaged lines.

    Torn lines from killed writers are expected artifacts: usually the
    final line, but a later append seals a torn tail with a newline, so a
    partial record can also sit mid-file.  Unparseable lines lose only
    themselves, never the archive.  ``on_skip(line_number, reason)``, when
    given, is invoked for every damaged (non-blank, unparseable) line so
    callers can count data loss instead of silently absorbing it.
    """
    # errors="replace": a line of flipped bytes must damage that line
    # (it fails JSON parsing), not crash the read of the whole archive.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                if on_skip is not None:
                    on_skip(lineno, str(exc))
                continue


@dataclass(frozen=True)
class DiffEntry:
    """One structural difference between two JSON documents.

    ``kind`` is ``'added'`` (key only in the new document), ``'removed'``
    (only in the old one) or ``'changed'`` (present in both, different
    values).  ``path`` is a dotted path; list indices appear as ``[i]``.
    """

    path: str
    kind: str
    old: Any = None
    new: Any = None

    def __str__(self) -> str:
        if self.kind == "added":
            return f"+ {self.path} = {self.new!r}"
        if self.kind == "removed":
            return f"- {self.path} = {self.old!r}"
        return f"~ {self.path}: {self.old!r} -> {self.new!r}"


def _walk(old: Any, new: Any, path: str) -> Iterator[DiffEntry]:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in new:
                yield DiffEntry(sub, "removed", old=old[key])
            elif key not in old:
                yield DiffEntry(sub, "added", new=new[key])
            else:
                yield from _walk(old[key], new[key], sub)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            sub = f"{path}[{i}]"
            if i >= len(new):
                yield DiffEntry(sub, "removed", old=old[i])
            elif i >= len(old):
                yield DiffEntry(sub, "added", new=new[i])
            else:
                yield from _walk(old[i], new[i], sub)
    elif old != new:
        yield DiffEntry(path, "changed", old=old, new=new)


def deep_diff(old: Any, new: Any) -> list[DiffEntry]:
    """Structural diff between two JSON-like documents.

    >>> deep_diff({"a": 1}, {"a": 2})[0].kind
    'changed'
    """
    return list(_walk(old, new, ""))
