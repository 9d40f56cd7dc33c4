"""Package metadata: the ``repro`` package lives under ``src/``.

This file is the only packaging metadata (there is no ``pyproject.toml``);
``pip install -e .`` installs the package, and the test and benchmark
dependencies are in ``requirements-dev.txt``.  Running from a checkout
needs neither: ``PYTHONPATH=src`` is enough.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
