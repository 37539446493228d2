"""The engine's recycled working arrays: live states never share memory,
and a campaign trial reuses the arrays earlier trials were handed."""

import numpy as np
import pytest

from walkqec import codec, engine, errors
from walkqec.engine import FIVE
from walkqec.pauli import DATA_PARTICLES, P1

from conftest import random_state

CELLS = [(family, target) for target in DATA_PARTICLES for family in ("coin", "shift")]


def _bloch_amplitudes(rng):
    theta, phi = np.pi * rng.random(), 2 * np.pi * rng.random()
    return complex(np.cos(theta / 2)), complex(np.exp(1j * phi) * np.sin(theta / 2))


def _assert_disjoint(arrays):
    arrays = list(arrays)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.fixture
def recycler(monkeypatch):
    """A fresh recycler behind ``engine.empty_amps``, so what it holds
    depends on this test alone."""
    fresh = engine._Recycler()
    monkeypatch.setattr(engine, "empty_amps", fresh.empty)
    return fresh


@pytest.mark.parametrize("family,target", CELLS)
def test_live_sessions_and_branches_never_alias(family, target, recycler):
    """A parity-0 cycle, a readout of every branch, then a parity-1 cycle on
    every branch: every session and branch array stays its own."""
    rng = np.random.default_rng([21, target, family == "shift"])
    ses = codec.encoded_session(*_bloch_amplitudes(rng))
    codec.inject_error(ses, errors.sample_random_error(rng, family, target))
    first = [b for _, b in codec.run_cycle(ses, all_branches=True)]
    assert len(first) > 1
    for b in first:
        codec.update_frame(b)
        codec.logical_readout(b.clone())  # aligns the clone; b stays displaced
    second = []
    for b in first:
        assert b.displacement == 2
        second += [s for _, s in codec.run_cycle(b, all_branches=True)]
    for s in second:
        codec.logical_readout(s)
    _assert_disjoint(s.state.amps for s in [ses] + first + second)
    assert recycler.held[FIVE.dim]


def test_measure_coin_children_never_alias(recycler, rng):
    state = random_state(FIVE, rng)
    for _ in range(3):  # both children's arrays are recycled from the second round on
        (_, first, _), (_, last, _) = engine.measure_coin(state.copy(), P1, both_branches=True)
        assert not np.shares_memory(first.amps, last.amps)
        del first, last


def test_a_held_view_keeps_its_array_out_of_reuse(recycler):
    (_, branch), *_ = codec.run_cycle(codec.encoded_session(0.6, 0.8), all_branches=True)
    arr = branch.state.amps
    assert any(a is arr for a in recycler.held[FIVE.dim])
    address = arr.ctypes.data
    view = branch.state.coin_view(P1)
    del branch, arr
    taken = [engine.empty_amps(FIVE.dim) for _ in range(engine._Recycler.HELD_PER_SIZE + 1)]
    assert not any(np.shares_memory(t, view) for t in taken)
    del view, taken
    again = [engine.empty_amps(FIVE.dim) for _ in range(engine._Recycler.HELD_PER_SIZE)]
    assert address in [a.ctypes.data for a in again]


def _campaign_op(rng, family, target):
    ses = codec.encoded_session(*_bloch_amplitudes(rng))
    codec.inject_error(ses, errors.sample_random_error(rng, family, target))
    for _, branch in codec.run_cycle(ses, all_branches=True):
        codec.update_frame(branch)
        codec.logical_readout(branch)


def test_campaign_ops_take_only_arrays_already_held(recycler):
    """After one warm-up op, 60 campaign ops get every working array from
    those the recycler held: its list neither grows nor changes."""
    rng = np.random.default_rng(60)
    _campaign_op(rng, "shift", 4)
    held = [id(a) for a in recycler.held[FIVE.dim]]  # ids: a reference would keep them in use
    assert len(held) < engine._Recycler.HELD_PER_SIZE  # so a new array would have joined
    for k in range(60):
        _campaign_op(rng, *CELLS[k % len(CELLS)])
    assert [id(a) for a in recycler.held[FIVE.dim]] == held


def test_a_read_only_array_is_handed_out_writable(recycler):
    """``extend`` makes its FIVE array read-only; once it is released, the
    recycler hands it out writable."""
    state = codec.encoded_session(0.6, 0.8).state
    assert not state.amps.flags.writeable
    address = state.amps.ctypes.data
    del state
    again = engine.empty_amps(FIVE.dim)
    assert again.ctypes.data == address
    assert again.flags.writeable
    again[:] = 0
