"""Setup shim for legacy editable installs (offline env lacks `wheel`)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of 'From Synchronous to Asynchronous: An Automatic "
        "Approach' (Cortadella et al., DATE 2004): automatic "
        "de-synchronization of gate-level netlists"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["networkx", "hypothesis", "pytest", "pytest-benchmark"],
    },
)
