import os
from pathlib import Path

import numpy as np
import pytest

from quivrep.verify import _random_rep as random_rep  # noqa: F401

SRC = str(Path(__file__).resolve().parent.parent / "src")
# numpy.exceptions.ComplexWarning in numpy 2, numpy.ComplexWarning in 1.24
COMPLEX_WARNING = getattr(np, "exceptions", np).ComplexWarning


def pytest_configure(config):
    # a complex value written into a real array silently loses its imaginary part
    config.addinivalue_line("filterwarnings", f"error::{COMPLEX_WARNING.__module__}.{COMPLEX_WARNING.__name__}")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def src_env():
    """The environment with this checkout's src first on PYTHONPATH, for a Python subprocess that imports quivrep."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
