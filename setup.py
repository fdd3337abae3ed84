"""Packaging for the repro reproduction.

Metadata lives here (there is no pyproject.toml): the offline environment
ships setuptools without the ``wheel`` package, so PEP 517 builds (which
build a wheel) fail; the legacy ``setup.py develop`` path works everywhere
(``pip install -e . --no-use-pep517 --no-build-isolation``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description="Reproduction of 'Towards Trustworthy Testbeds thanks to "
                "Throughout Testing' (Nussbaum, REPPAR @ IPDPS 2017)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.oar": ["builtin_traces/*.jsonl"]},
    include_package_data=True,
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-campaign = repro.cli:main",
            "repro-lint = repro.analysis.static.cli:main",
        ],
    },
)
