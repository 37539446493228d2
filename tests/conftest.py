import numpy as np
import pytest
from hypothesis import settings

from walkqec import codec, engine
from walkqec.oracle import dense_of
from walkqec.pauli import DATA_PARTICLES, ROLES, STABILIZERS, PauliWord

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


def walker_map_reference(state, particle, u8):
    """An 8x8 map on one walker as a tensordot over the (8,) * n view,
    independent of the engine's walker-map kernel."""
    ax = state.layout.num_particles - 1 - state.layout.slot(particle)  # most significant first
    moved = np.moveaxis(state.amps.reshape((8,) * state.layout.num_particles), ax, 0)
    new = np.tensordot(u8, moved, axes=([1], [0]))
    return engine.StateVector(state.layout, np.moveaxis(new, 0, ax).reshape(-1))


def position_distribution(state, particle):
    """Marginal probability over a walker's four vertices (indexed by v)."""
    ax = state.layout.num_particles - 1 - state.layout.slot(particle)
    probs = np.abs(state.amps.reshape((8,) * state.layout.num_particles)) ** 2
    per_b = probs.sum(axis=tuple(i for i in range(probs.ndim) if i != ax))
    return per_b[:4] + per_b[4:]


def all_single_qubit_paulis():
    """All 27 nontrivial single-qubit Paulis on the data walkers."""
    return [PauliWord.single(p, role, letter)
            for p in DATA_PARTICLES for role in ROLES for letter in ("X", "Y", "Z")]


def syndrome_from_str(text):
    """Parse an 'm5m4m3m2m1m0' string into (m0..m5)."""
    return tuple(int(c) for c in reversed(text))


def codespace_projector(signs):
    """Product of (1 + f_i s_i)/2 over the six stabilizers, 512x512."""
    if len(signs) != 6 or set(signs) - {1, -1}:
        raise ValueError("signs must be six values in {+1,-1}")
    proj = np.eye(512, dtype=complex)
    for f, s in zip(signs, STABILIZERS):
        proj = proj @ (np.eye(512) + f * dense_of(s)) / 2
    return proj
