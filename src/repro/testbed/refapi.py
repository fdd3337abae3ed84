"""The Reference API: versioned, archived resource descriptions.

Slide 7: descriptions are *archived* ("State of testbed 6 months ago?"),
verified by g5k-checks, and feed the OAR properties database.  This module
implements that store:

* every :meth:`ReferenceApi.commit` snapshots the whole testbed document
  under a content hash, with a timestamp and message (git-like history);
* :meth:`ReferenceApi.at_time` answers "what did the testbed look like at
  time T" — the archival property the paper calls out;
* node descriptions can be updated in place (what operators do when a bug
  report shows the description is wrong) and re-committed;
* :meth:`ReferenceApi.diff` exposes structural differences between any two
  versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..util.errors import ReferenceApiError
from ..util.serialization import DiffEntry, content_hash, deep_diff
from .description import NodeDescription, TestbedDescription

__all__ = ["RefApiVersion", "ReferenceApi"]


@dataclass(frozen=True)
class RefApiVersion:
    """One committed snapshot of the testbed description.

    ``doc`` is read-only: a version may be shared by the stores of many
    runs (see :meth:`ReferenceApi.from_head`).
    """

    version: str  # content hash
    timestamp: float
    message: str
    doc: dict[str, Any]


class ReferenceApi:
    """Versioned store of :class:`TestbedDescription` documents."""

    def __init__(self, testbed: TestbedDescription, timestamp: float = 0.0):
        self._testbed = testbed
        self._history: list[RefApiVersion] = []
        self.commit(timestamp, "initial import")

    @classmethod
    def from_head(cls, testbed: TestbedDescription,
                  head: RefApiVersion) -> "ReferenceApi":
        """A store whose history starts at ``head``, an already-committed
        snapshot of ``testbed``'s current document.

        This is the ``__init__`` import without serialising and hashing
        the document again: the builder imports each testbed once per
        process and starts every run's store from that version.  ``head``
        is then shared between stores, so its ``doc`` must stay read-only;
        in this package :meth:`diff` is its only reader.
        """
        api = cls.__new__(cls)
        api._testbed = testbed
        api._history = [head]
        return api

    # -- current state ---------------------------------------------------------

    @property
    def testbed(self) -> TestbedDescription:
        """The live (HEAD) description object."""
        return self._testbed

    @property
    def head(self) -> RefApiVersion:
        return self._history[-1]

    def node(self, uid: str) -> NodeDescription:
        """Current description of one node (raises ReferenceApiError if unknown)."""
        try:
            return self._testbed.node(uid)
        except KeyError as e:
            raise ReferenceApiError(str(e)) from None

    def update_node(self, node: NodeDescription, timestamp: float, message: str) -> str:
        """Replace a node's description and commit the change.

        This is the operator action taken when a bug report shows the
        *description* (not the hardware) was wrong.
        """
        try:
            self._testbed.replace_node(node)
        except KeyError as e:
            raise ReferenceApiError(str(e)) from None
        return self.commit(timestamp, message)

    # -- history ---------------------------------------------------------------

    def commit(self, timestamp: float, message: str) -> str:
        """Snapshot the current description; returns the version hash.

        Committing an unchanged document is a no-op returning the HEAD
        version (descriptions are content-addressed).
        """
        if self._history and timestamp < self._history[-1].timestamp:
            raise ReferenceApiError(
                f"commit at {timestamp} is before HEAD ({self._history[-1].timestamp})"
            )
        doc = self._testbed.to_doc()
        version = content_hash(doc)
        if self._history and self._history[-1].version == version:
            return version
        self._history.append(RefApiVersion(version, timestamp, message, doc))
        return version

    @property
    def history(self) -> tuple[RefApiVersion, ...]:
        return tuple(self._history)

    def get_version(self, version: str) -> RefApiVersion:
        for v in self._history:
            if v.version == version:
                return v
        raise ReferenceApiError(f"unknown version: {version}")

    def at_time(self, timestamp: float) -> RefApiVersion:
        """The snapshot in force at ``timestamp`` (archival lookup)."""
        candidate: Optional[RefApiVersion] = None
        for v in self._history:
            if v.timestamp <= timestamp:
                candidate = v
        if candidate is None:
            raise ReferenceApiError(f"no snapshot at or before t={timestamp}")
        return candidate

    def diff(self, old_version: str, new_version: str) -> list[DiffEntry]:
        """Structural differences between two committed versions."""
        old = self.get_version(old_version)
        new = self.get_version(new_version)
        return deep_diff(old.doc, new.doc)
