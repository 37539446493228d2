"""The compile pass's gather tables, against the per-step reference.

A run of Shift, Neighbor and signed-permutation Coin steps compiles into
gather tables only, which the compile pass builds by running the steps on
the engine's kernels over a probe vector.  The fused run and the per-step
reference then move the same values, so they must agree exactly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkqec import engine, verify
from walkqec.engine import COIN_I, COIN_X, COIN_Z, VERTEX_LABELS, CoinSpec, Layout
from walkqec.pauli import DATA_PARTICLES
from walkqec.programs import (Coin, Neighbor, Shift, SignedPermutation, WalkProgram,
                              compile_program, run_program)

from conftest import random_state
from reference import interpret_program

LAYOUTS = {
    "FIVE": engine.FIVE,
    "CHECK_LAYOUT": verify.CHECK_LAYOUT,
    "data-slice": engine.FIVE.parking(DATA_PARTICLES),
    "two-walkers": Layout(2),
    "three-walkers": Layout(3),
}

# 2x2 coins whose walker maps are signed permutations
SIGNED_COINS = {"X": COIN_X, "Z": COIN_Z, "-I": -COIN_I, "XZ": COIN_X @ COIN_Z}


def permutation_programs(layout):
    """Runs of 1-12 Shift, Neighbor and Coin steps, each Coin a signed
    permutation at drawn walkers and vertices of ``layout``."""
    entry = st.tuples(st.sampled_from(layout.particles), st.sampled_from(VERTEX_LABELS))
    coin = st.dictionaries(entry, st.sampled_from(sorted(SIGNED_COINS)), min_size=1,
                           max_size=6).map(
        lambda names: Coin(CoinSpec({pv: SIGNED_COINS[n] for pv, n in names.items()})))
    step = st.one_of(st.just(Shift()), st.just(Neighbor()), coin)
    return st.lists(step, min_size=1, max_size=12).map(
        lambda steps: WalkProgram("drawn", tuple(steps)))


@pytest.mark.parametrize("name", list(LAYOUTS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_gather_tables_move_values_like_the_reference(name, data):
    layout = LAYOUTS[name]
    program = data.draw(permutation_programs(layout))
    state = random_state(layout, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    assert all(isinstance(seg, SignedPermutation) for seg in compile_program(program, layout))
    (got,) = run_program(state, program)
    (want,) = interpret_program(state, program)
    assert np.array_equal(got.state.amps, want.state.amps)
