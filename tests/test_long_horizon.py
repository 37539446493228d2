"""Sequences of syndrome cycles with Pauli flips between them, and the
frame in which a flip is injected."""

import numpy as np
from hypothesis import given, settings, strategies as st

from walkqec import engine, errors, oracle, pauli
from walkqec.codec import (apply_frame_physically, bloch_fidelity, encoded_session,
                           inject_error, logical_readout, run_cycle, update_frame)
from walkqec.pauli import PauliWord

from conftest import all_single_qubit_paulis, fidelity

# Two shifts, the displacement one cycle adds, on one walker.
SHIFT2 = engine.SHIFT_MAP @ engine.SHIFT_MAP


def commutes_with_shift2(word: PauliWord) -> bool:
    m = oracle.dense_of(word, [pauli.q(word.particles()[0], r) for r in pauli.ROLES])
    return np.array_equal(m @ SHIFT2, SHIFT2 @ m)


FLIPS = all_single_qubit_paulis()
# inject_error applies its word in the lab frame.  At displacement 2 that
# is the home-frame word conjugated by the two shifts, so only flips that
# commute with them are the same single-qubit error there.
DISPLACED_FLIPS = [w for w in FLIPS if commutes_with_shift2(w)]


def _cycle(ses):
    branches = run_cycle(ses, all_branches=True)
    assert abs(sum(p for p, _ in branches) - 1) <= 1e-12
    assert len(branches) == 1
    ses = branches[0][1]
    assert abs(ses.state.norm() - 1) <= 1e-12
    return ses


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(0, np.pi), phi=st.floats(0, 2 * np.pi),
       flips=st.lists(st.tuples(st.none() | st.sampled_from(FLIPS),
                                st.none() | st.sampled_from(DISPLACED_FLIPS)),
                      min_size=1, max_size=4))
def test_cycles_with_flips(theta, phi, flips):
    """Per cycle k the flip is drawn for displacement 2k mod 4 of the
    deferred run: any flip at home, a shift-commuting one when displaced."""
    deferred = encoded_session(np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2))
    percycle = deferred.clone()
    want = logical_readout(deferred.clone()).bloch
    for k, pair in enumerate(flips):
        flip = pair[k % 2]
        if flip is not None:
            for ses in (deferred, percycle):
                inject_error(ses, errors.PauliFlip(flip, flip.particles()[0]))
        before = deferred.state
        deferred = _cycle(deferred)
        update_frame(deferred)
        if flip is None:  # QND: nothing flips, and the state only moves by two shifts
            assert deferred.history.cycles[-1].m_str() == "000000"
            moved = engine.apply_shift(engine.apply_shift(before))
            assert fidelity(deferred.state, moved) > 1 - 1e-12
        percycle = _cycle(percycle)
        update_frame(percycle)
        apply_frame_physically(percycle)
    got = logical_readout(deferred).bloch
    assert np.max(np.abs(np.subtract(got, logical_readout(percycle).bloch))) <= 1e-12
    assert bloch_fidelity(want, got) > 1 - 1e-10


def test_coin_flip_at_displacement_two_is_a_home_frame_weight_three_word():
    """Characterization: a lab-frame Xc on P2 after one cycle equals the
    home-frame (Xc Xx Xy) on P2 exactly, and that word has no syndrome,
    so the next cycle cannot see it."""
    ses = _cycle(encoded_session(0.8, 0.6j))
    assert ses.displacement == 2
    lab = ses.clone()
    inject_error(lab, errors.PauliFlip(PauliWord.single(2, "c", "X"), 2))
    lab.align()
    home = ses.clone().align()
    xxx = pauli.from_triples({2: "XXX"})
    home.state = engine.apply_pauli_word(home.state, xxx)
    assert np.max(np.abs(lab.state.amps - home.state.amps)) == 0.0
    assert pauli.syndrome_of(xxx) == (0,) * 6
    assert not commutes_with_shift2(PauliWord.single(2, "c", "X"))
