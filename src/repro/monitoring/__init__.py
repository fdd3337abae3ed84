"""Monitoring: kwapi power per PDU outlet, Ganglia system probes."""

from .probes import Ganglia, Kwapi

__all__ = ["Ganglia", "Kwapi"]
