import numpy as np
import pytest
from hypothesis import settings

from walkqec import codec, engine

# Property tests draw the same examples on every run and keep no example
# database, so a failure reproduces from the test alone.
settings.register_profile("walkqec", derandomize=True, database=None)
settings.load_profile("walkqec")

@pytest.fixture(scope="session")
def zero_session_five():
    """Prepared |0>_L on the five-walker layout (all references +1)."""
    return codec.prepare_logical_zero(engine.FIVE)


@pytest.fixture(scope="session")
def zero_session_six():
    return codec.prepare_logical_zero(engine.SIX)


@pytest.fixture
def rng():
    return np.random.default_rng(20240902)


def random_state(layout, rng):
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps /= np.linalg.norm(amps)
    return engine.StateVector(layout, amps)
