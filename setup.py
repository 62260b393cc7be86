"""Package metadata for the ``repro`` library (sources under ``src/``).

Install for development with ``pip install -e .``; the test and lint tools
are listed in ``requirements-dev.txt``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Tsunami: a learned multi-dimensional index for correlated data "
        "and skewed workloads"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
