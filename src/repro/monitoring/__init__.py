"""Monitoring: metric ring columns, Ganglia system probes, kwapi power."""

from .metrics import MetricStore, RingColumnBlock, SeriesStats
from .probes import Ganglia, Kwapi

__all__ = ["MetricStore", "RingColumnBlock", "SeriesStats", "Ganglia",
           "Kwapi"]
