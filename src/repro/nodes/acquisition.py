"""Fact-acquisition emulators: OHAI, ethtool, dmidecode, hdparm, ibstat.

g5k-checks on the real testbed shells out to these tools at node boot and
parses their output (slide 7: "Acquires info using OHAI, ethtool, etc.").
Here each emulator renders a tool-shaped document from a
:class:`~repro.nodes.machine.HardwareState`.  On a node's *actual* state a
BIOS flip or firmware swap that a fault injected is faithfully visible in
the acquired facts; on the state built from the node's description they
give what the hardware *should* report, so a description-vs-actual
mismatch becomes detectable.

All emulators return plain dicts (the structured equivalent of the parsed
tool output), which is what the comparison engine consumes.
"""

from __future__ import annotations

from typing import Any

from .machine import HardwareState

__all__ = [
    "ohai",
    "ethtool",
    "dmidecode",
    "hdparm",
    "smartctl",
    "cpupower",
    "ibstat",
    "acquire_all",
]


def ohai(hw: HardwareState) -> dict[str, Any]:
    """System inventory: CPU, memory, block devices (chef/ohai-shaped)."""
    return {
        "hostname": hw.hostname,
        "cpu": {
            "model_name": hw.cpu_model,
            "real": hw.cpu_count,
            "cores": hw.cpu_count * hw.cores_per_cpu,
            "total": hw.visible_logical_cpus(),
            "mhz": round(hw.clock_ghz * 1000),
        },
        "memory": {"total_kb": hw.ram_gb * 1024 * 1024},
        "block_device": {
            d.device: {
                "vendor": d.vendor,
                "model": d.model,
                "size_gb": d.size_gb,
                "rotational": d.storage_type == "HDD",
            }
            for d in hw.disks
            if d.healthy
        },
    }


def ethtool(hw: HardwareState, device: str) -> dict[str, Any]:
    """Link settings for one interface (``ethtool ethX`` shaped)."""
    nic = hw.find_nic(device)
    return {
        "interface": nic.device,
        "speed": f"{int(nic.rate_gbps * 1000)}Mb/s" if nic.link_up else "Unknown!",
        "duplex": "Full" if nic.link_up else "Unknown!",
        "link_detected": "yes" if nic.link_up else "no",
        "driver": nic.driver,
        "mac": nic.mac,
    }


def dmidecode(hw: HardwareState) -> dict[str, Any]:
    """SMBIOS info: BIOS version, serial, product."""
    return {
        "bios": {"version": hw.bios.version},
        "system": {
            "serial_number": hw.serial,
            "product_name": hw.product_name,
        },
        "processor_count": hw.cpu_count,
    }


def hdparm(hw: HardwareState, device: str) -> dict[str, Any]:
    """Drive configuration (``hdparm -I /dev/sdX`` shaped)."""
    disk = hw.find_disk(device)
    return {
        "device": disk.device,
        "model": disk.model,
        "firmware": disk.firmware,
        "write_cache": "enabled" if disk.write_cache else "disabled",
        "read_ahead": "on" if disk.read_ahead else "off",
    }


def smartctl(hw: HardwareState, device: str) -> dict[str, Any]:
    """SMART health summary for one drive."""
    disk = hw.find_disk(device)
    return {
        "device": disk.device,
        "model_family": disk.vendor,
        "device_model": disk.model,
        "firmware_version": disk.firmware,
        "smart_status": "PASSED" if disk.healthy else "FAILED",
        "user_capacity_gb": disk.size_gb,
    }


def cpupower(hw: HardwareState) -> dict[str, Any]:
    """CPU power-management state (``cpupower idle-info`` / sysfs shaped).

    This is how the real g5k-checks observes the C-state / turbo / governor
    drift of slide 13 — the BIOS setting surfaces through the kernel.
    """
    bios = hw.bios
    return {
        "c_states": "enabled" if bios.c_states else "disabled",
        "turbo_boost": "active" if bios.turbo_boost else "inactive",
        "governor": {"performance": "performance", "balanced": "ondemand",
                     "powersave": "powersave"}[bios.power_profile],
        "smt_active": 1 if bios.hyperthreading else 0,
    }


def ibstat(hw: HardwareState) -> dict[str, Any]:
    """Infiniband HCA status (``ibstat`` shaped); empty dict if no HCA."""
    ib = hw.infiniband
    if ib is None:
        return {}
    return {
        "ca_name": "mlx4_0",
        "model": ib.model,
        "node_guid": ib.guid,
        "rate_gbps": ib.rate_gbps,
        "state": "Active" if ib.stack_ok else "Down",
        "physical_state": "LinkUp" if ib.stack_ok else "Polling",
    }


def acquire_all(hw: HardwareState) -> dict[str, Any]:
    """Everything g5k-checks gathers in one boot-time pass."""
    facts: dict[str, Any] = {
        "ohai": ohai(hw),
        "cpupower": cpupower(hw),
        "dmidecode": dmidecode(hw),
        "ethtool": {nic.device: ethtool(hw, nic.device) for nic in hw.nics},
        "hdparm": {d.device: hdparm(hw, d.device) for d in hw.disks if d.healthy},
        "smartctl": {d.device: smartctl(hw, d.device) for d in hw.disks},
    }
    ib = ibstat(hw)
    if ib:
        facts["ibstat"] = ib
    return facts
