"""Environment image registry.

The paper's matrix job tests **14 reference images** on 32 clusters
(slide 15: "test_environments: 14 images x 32 clusters = 448
configurations").  Images are built with Kameleon for traceability
(slide 8); here each image carries the attributes the deployment timing
model needs (size).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnvironmentImage", "REFERENCE_IMAGES", "STD_ENV", "image_by_name"]


@dataclass(frozen=True)
class EnvironmentImage:
    """One deployable system image."""

    name: str
    os: str
    version: str
    variant: str  # "min" (bare), "std" (tools), "big" (full), "nfs", "xen"
    size_mb: int
    kernel: str


#: The std environment every node runs by default (stdenv test family).
STD_ENV = "debian8-std"

#: Exactly 14 reference images -> 14 x 32 = 448 matrix configurations.
REFERENCE_IMAGES: tuple[EnvironmentImage, ...] = (
    EnvironmentImage("debian8-min", "debian", "8", "min", 450, "3.16.0-4"),
    EnvironmentImage("debian8-base", "debian", "8", "base", 700, "3.16.0-4"),
    EnvironmentImage("debian8-std", "debian", "8", "std", 1200, "3.16.0-4"),
    EnvironmentImage("debian8-big", "debian", "8", "big", 2300, "3.16.0-4"),
    EnvironmentImage("debian8-nfs", "debian", "8", "nfs", 1300, "3.16.0-4"),
    EnvironmentImage("debian8-xen", "debian", "8", "xen", 1500, "3.16.0-4-xen"),
    EnvironmentImage("debian9-min", "debian", "9", "min", 500, "4.9.0-2"),
    EnvironmentImage("debian9-base", "debian", "9", "base", 750, "4.9.0-2"),
    EnvironmentImage("debian9-std", "debian", "9", "std", 1250, "4.9.0-2"),
    EnvironmentImage("ubuntu1404-min", "ubuntu", "14.04", "min", 550, "3.13.0-24"),
    EnvironmentImage("ubuntu1604-min", "ubuntu", "16.04", "min", 600, "4.4.0-21"),
    EnvironmentImage("centos7-min", "centos", "7", "min", 650, "3.10.0-514"),
    EnvironmentImage("fedora25-min", "fedora", "25", "min", 700, "4.8.6-300"),
    EnvironmentImage("freebsd11-min", "freebsd", "11", "min", 800, "11.0-RELEASE"),
)

_BY_NAME = {img.name: img for img in REFERENCE_IMAGES}


def image_by_name(name: str) -> EnvironmentImage:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown environment image: {name!r}") from None
