"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel."""


class ParseError(ReproError):
    """A resource-expression (``oarsub -l``) string could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int = -1):
        self.text = text
        self.position = position
        if position >= 0:
            message = f"{message} (at position {position} in {text!r})"
        super().__init__(message)


class SchedulingError(ReproError):
    """A job request cannot be satisfied by the resource manager."""


class DeploymentError(ReproError):
    """A Kadeploy deployment failed in a non-recoverable way."""


class VlanError(ReproError):
    """Invalid VLAN allocation or reconfiguration request."""


class ReferenceApiError(ReproError):
    """Lookup or version error in the Reference API store."""


class CiError(ReproError):
    """Invalid Jenkins-server operation (unknown job, bad state, ...)."""


class FaultError(ReproError):
    """Invalid fault-injection request (unknown kind, bad target, ...)."""
