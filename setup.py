"""Setuptools build script.

The execution environment has no ``wheel`` package and no network access, so
``pip install -e .`` cannot build the PEP 517 editable wheel.  Declaring the
metadata here lets ``python setup.py develop`` (and the legacy
``pip install -e . --no-use-pep517`` path) install the package, including the
``repro`` console entry point for the CLI.
"""

from pathlib import Path

from setuptools import find_packages, setup

setup(
    name="repro-iolb",
    version="1.10.0",
    description=(
        "Reproduction of IOLB (PLDI 2020): automated parametric I/O "
        "lower bounds and operational-intensity upper bounds for affine programs"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "sympy",
        "networkx",
        "numpy",
        "scipy",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "pytest-cov"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.__main__:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
    ],
)
