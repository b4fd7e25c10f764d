import numpy as np
import pytest

from quivrep.verify import _random_rep as random_rep  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(0)
