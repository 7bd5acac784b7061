"""Packaging for the CoverMe reproduction.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so ``pip install -e .``
works on environments whose setuptools/wheel combination cannot perform
PEP 660 editable installs (e.g. offline machines without the ``wheel``
package).  Installing exposes the unified experiment CLI as the ``repro``
console script (equivalent to ``python -m repro``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-coverme",
    version="0.4.0",
    description=(
        "Reproduction of 'Achieving High Coverage for Floating-point Code via "
        "Unconstrained Programming' (Fu & Su, PLDI 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
