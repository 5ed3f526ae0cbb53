"""Setuptools entry point.

The repository carries no packaging metadata: the library runs straight from
a checkout with ``PYTHONPATH=src`` (numpy is the only runtime dependency; the
test suites also need pytest, pytest-benchmark and hypothesis).  This stub
only exists so that tools which expect a ``setup.py`` at the root find one.
"""

from setuptools import setup

setup()
