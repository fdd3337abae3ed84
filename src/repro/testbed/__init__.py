"""Testbed substrate: resource descriptions, Reference API, topology.

Public entry point::

    from repro.testbed import build_grid5000, ReferenceApi, build_topology

    testbed = build_grid5000()           # 8 sites / 32 clusters / 894 nodes
    refapi = ReferenceApi(testbed)       # versioned description store
    topo = build_topology(testbed)       # node -> ToR switch and site
"""

from .catalog import (
    CPU_MODELS,
    DISK_MODELS,
    GPU_MODELS,
    IB_MODELS,
    NIC_MODELS,
    CpuModel,
    DiskModel,
    GpuModel,
    IbModel,
    NicModel,
    cpu_for,
    disk_model,
    nic_model,
)
from .description import (
    BiosSettings,
    ClusterDescription,
    CpuSpec,
    DiskSpec,
    GpuSpec,
    InfinibandSpec,
    NicSpec,
    NodeDescription,
    PduPort,
    SiteDescription,
    TestbedDescription,
)
from .generator import CLUSTER_SPECS, SITE_NAMES, ClusterSpec, build_grid5000
from .refapi import RefApiVersion, ReferenceApi
from .topology import NetworkTopology, build_topology

__all__ = [
    "BiosSettings",
    "CpuSpec",
    "DiskSpec",
    "NicSpec",
    "InfinibandSpec",
    "GpuSpec",
    "PduPort",
    "NodeDescription",
    "ClusterDescription",
    "SiteDescription",
    "TestbedDescription",
    "CpuModel",
    "DiskModel",
    "NicModel",
    "IbModel",
    "GpuModel",
    "CPU_MODELS",
    "DISK_MODELS",
    "NIC_MODELS",
    "IB_MODELS",
    "GPU_MODELS",
    "cpu_for",
    "disk_model",
    "nic_model",
    "ClusterSpec",
    "CLUSTER_SPECS",
    "SITE_NAMES",
    "build_grid5000",
    "ReferenceApi",
    "RefApiVersion",
    "NetworkTopology",
    "build_topology",
]
