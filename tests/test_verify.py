"""The identity checks and gate words run on the (P0, P2, P4, PEX) layout,
with the same results as on the full six-walker layout."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkqec import codec, engine, oracle, pauli, programs, verify
from walkqec.pauli import DATA_PARTICLES, P1, P3, PEX

SIX = engine.SIX
CHECK = verify.CHECK_LAYOUT
KEEP = DATA_PARTICLES + (PEX,)


@pytest.fixture
def run_inputs(monkeypatch):
    """The layout of every input ``programs.run_program`` receives."""
    layouts = []
    run = programs.run_program

    def spy(state, program, **policy):
        layouts.append(state.layout)
        return run(state, program, **policy)

    monkeypatch.setattr(programs, "run_program", spy)
    return layouts


@pytest.fixture
def state_dims(monkeypatch):
    """The size of every state built."""
    dims = []
    init = engine.StateVector.__init__

    def recording(self, layout, amps):
        dims.append(layout.dim)
        init(self, layout, amps)

    monkeypatch.setattr(engine.StateVector, "__init__", recording)
    return dims


def six_basis():
    """``verify._cnot_basis`` built on the full six-walker layout."""
    zero = codec.prepare_logical_zero(SIX).state
    one = engine.apply_pauli_word(zero, pauli.LOGICAL_X)
    flip = pauli.PauliWord.single(PEX, "c", "X")
    return [zero, one, engine.apply_pauli_word(zero, flip), engine.apply_pauli_word(one, flip)]


def middle_flats(layout):
    return [(bx << (3 * layout.slot(PEX))) | (b4 << (3 * layout.slot(4)))
            for bx in (0, 4) for b4 in range(8)]


def assert_same_outputs(program, parked, full):
    """Each parked output is the full output's slice, bit for bit."""
    for p, f in zip(parked, full):
        out = programs.run_unitary(p, program)
        assert out.layout == CHECK
        full_out = programs.run_unitary(f, program)
        assert engine.support(full_out, KEEP) == KEEP
        assert np.array_equal(out.amps, engine.take_slice(full_out, KEEP).amps)


class TestCheckLayout:
    def test_parks_the_syndrome_ancillas(self):
        assert CHECK.particles == KEEP
        assert CHECK.parked == {P1, P3}
        assert CHECK.dim == 4096

    @pytest.mark.parametrize("check", [
        lambda: all(r["pass"] for r in verify.identity_checks()),
        lambda: verify.gate_word_deviation("T") < 1e-8,
    ], ids=["identities", "T-word"])
    def test_no_run_or_state_is_wider(self, check, run_inputs, state_dims):
        assert check()
        assert run_inputs
        for layout in run_inputs:
            assert layout.dim <= 4096
            # parked, or not in the layout at all (the one-walker transform check)
            assert P1 not in layout.particles and P3 not in layout.particles
        assert max(state_dims) <= 4096


class TestSameAsFullSix:
    def test_basis_is_the_six_basis_sliced(self):
        for p, f in zip(verify._cnot_basis(), six_basis()):
            assert p.layout == CHECK
            assert np.array_equal(p.amps, engine.take_slice(f, KEEP).amps)

    @pytest.mark.parametrize("build", [programs.build_cnot_coin_to_logical,
                                       programs.build_cphase, programs.build_logical_t],
                             ids=["cnot", "cphase", "T"])
    def test_extracted_unitary(self, build):
        program = build()
        parked, full = verify._cnot_basis(), six_basis()
        assert np.array_equal(oracle.extract_unitary(program, parked, parked),
                              oracle.extract_unitary(program, full, full))
        assert_same_outputs(program, parked, full)

    def test_cphase_matrix_check(self):
        cphase = programs.build_cphase()
        assert (verify._cphase_matrix_deviation(cphase, verify._cnot_basis())
                == verify._cphase_matrix_deviation(cphase, six_basis()))

    def test_cphase_operator_inputs(self, rng):
        v = rng.normal(size=512) + 1j * rng.normal(size=512)
        v /= np.linalg.norm(v)
        vec = np.zeros(4096, dtype=complex)
        vec[:512], vec[2048:2560] = v / np.sqrt(2), -v / np.sqrt(2)
        parked = [engine.StateVector(CHECK, vec)]
        assert_same_outputs(programs.build_cphase(), parked, [engine.extend(SIX, KEEP, vec)])

    def test_middle_block(self):
        program = programs.build_interaction_block()
        assert np.array_equal(oracle.basis_matrix(program, CHECK, middle_flats(CHECK)),
                              oracle.basis_matrix(program, SIX, middle_flats(SIX)))
        for fp, fs in zip(middle_flats(CHECK), middle_flats(SIX)):
            parked = engine.StateVector(CHECK, np.zeros(CHECK.dim, dtype=complex))
            parked.amps[fp] = 1.0
            full = engine.StateVector(SIX, np.zeros(SIX.dim, dtype=complex))
            full.amps[fs] = 1.0
            assert_same_outputs(program, [parked], [full])

    @pytest.mark.parametrize("word", ["T", "H S T", "T T H"])
    def test_gate_word_readouts(self, word):
        for alpha, beta in verify.BLOCH_GRID:
            got = [codec.logical_readout(codec.apply_word(
                codec.encoded_session(alpha, beta, layout=layout), word)).bloch
                for layout in (CHECK, SIX)]
            assert got[0] == got[1]


class TestGateWords:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.sampled_from(("H", "S", "Z", "T")), min_size=1, max_size=12))
    def test_random_words_match_ideal_composition(self, gates):
        assert verify.gate_word_deviation(" ".join(gates)) < 1e-8
