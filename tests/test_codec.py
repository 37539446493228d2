"""Codec lifecycle: preparation, encoding, cycles, frames, logical gates."""

import numpy as np
import pytest

from walkqec import codec, engine, errors, pauli, programs
from walkqec.codec import (PauliFrame, apply_frame_physically,
                           apply_logical_gate, apply_word, bloch_fidelity,
                           encode, encoded_session, ideal_bloch_map, inject_error,
                           logical_readout, measure_g, prepare_logical_zero,
                           run_cycle, update_frame)
from walkqec.pauli import (CRITERIA_G, GAUGES, GX0, GZ1, LOGICAL_X,
                           LOGICAL_Z, PauliWord, pw_mul, pw_product)

from conftest import all_single_qubit_paulis, syndrome_from_str

FIVE, SIX = engine.FIVE, engine.SIX
SQ2 = 1 / np.sqrt(2)


class TestPrepare:
    def test_all_plus_references(self, zero_session_five):
        ses = zero_session_five
        assert ses.history.references == (1,) * 6
        for s in pauli.STABILIZERS:
            assert engine.expectation(ses.state, s) == pytest.approx(1.0, abs=1e-12)
        assert engine.expectation(ses.state, LOGICAL_Z) == pytest.approx(1.0, abs=1e-12)

    def test_forced_negative_x_sector(self):
        ses = prepare_logical_zero(FIVE, forced_signs={"s4": -1, "s5": -1})
        assert ses.history.references == (1, 1, 1, 1, -1, -1)
        assert engine.expectation(ses.state, pauli.S4) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_probability_forced_sign_raises(self):
        with pytest.raises(ValueError):
            prepare_logical_zero(FIVE, forced_signs={"s0": -1})
        with pytest.raises(ValueError):
            prepare_logical_zero(FIVE, forced_signs={"zbar": -1})

    def test_repeatable(self, monkeypatch):
        """Without an rng or forced signs, |0>_L is projected once, and
        then read from the cache that encoded_session reads."""
        a = prepare_logical_zero(FIVE)
        monkeypatch.setattr(engine, "project_pauli", None)   # a projection would raise
        b = prepare_logical_zero(FIVE)
        assert np.array_equal(a.state.amps, b.state.amps)
        assert a.history.references == b.history.references

    def test_readout_is_plus_z(self, zero_session_five):
        r = logical_readout(zero_session_five.clone())
        assert np.allclose(r.bloch, (0, 0, 1), atol=1e-12)

    @pytest.mark.parametrize("layout", [FIVE, SIX], ids=["FIVE", "SIX"])
    def test_data_walker_projection_equals_the_full_layout_one(self, layout):
        # the reference projects on the whole layout
        zero = engine.all_at_origin(layout)
        for word in pauli.STABILIZERS + (LOGICAL_Z,):
            zero, _ = engine.project_pauli(zero, word, 1)
        one = engine.apply_pauli_word(zero, LOGICAL_X)
        ses = prepare_logical_zero(layout)
        assert ses.history.references == (1,) * 6
        assert np.array_equal(ses.state.amps, zero.amps)
        encoded = encoded_session(0.8, 0.6j, layout=layout)
        assert encoded.history.references == (1,) * 6
        assert np.array_equal(encoded.state.amps, 0.8 * zero.amps + 0.6j * one.amps)


class TestEncode:
    def test_zero_amplitudes(self, zero_session_six):
        ses = zero_session_six.clone()
        encode(ses, 1.0, 0.0, forced_outcome=0)
        assert np.allclose(logical_readout(ses).bloch, (0, 0, 1), atol=1e-10)

    def test_plus_state(self, zero_session_six):
        ses = zero_session_six.clone()
        encode(ses, SQ2, SQ2, forced_outcome=0)
        assert np.allclose(logical_readout(ses).bloch, (1, 0, 0), atol=1e-10)

    def test_y_state(self, zero_session_six):
        ses = zero_session_six.clone()
        encode(ses, SQ2, 1j * SQ2, forced_outcome=0)
        assert np.allclose(logical_readout(ses).bloch, (0, 1, 0), atol=1e-10)

    def test_seeded_preparation_and_encoding(self):
        """Stabilizer signs and the encode outcome drawn by the session's
        rng: each reference is its stabilizer's eigenvalue, the readout is
        the input's Bloch vector, and a seed repeats its run bit for bit."""
        def run(seed):
            return encode(prepare_logical_zero(SIX, rng=np.random.default_rng(seed)), 0.8, 0.6j)

        patterns = set()
        for seed in range(8):
            ses, again = run(seed), run(seed)
            refs = ses.history.references
            assert again.history.references == refs
            assert again.state.amps.tobytes() == ses.state.amps.tobytes()
            data = engine.take_slice(ses.state, pauli.DATA_PARTICLES)
            for ref, word in zip(refs, pauli.STABILIZERS):
                assert abs(engine.expectation(data, word) - ref) <= 1e-12
            assert np.allclose(logical_readout(ses).bloch, (0, 0.96, 0.28), rtol=0, atol=1e-12)
            patterns.add(refs)
        assert len(patterns) > 1   # s4 and s5 are drawn

    def test_both_branches_agree(self, zero_session_six):
        a = zero_session_six.clone()
        b = zero_session_six.clone()
        encode(a, 0.8, 0.6j, forced_outcome=0)
        encode(b, 0.8, 0.6j, forced_outcome=1)
        assert engine.fidelity(a.state, b.state) == pytest.approx(1.0, abs=1e-10)

    def test_external_walker_reparked(self, zero_session_six):
        ses = zero_session_six.clone()
        encode(ses, 0.6, 0.8, forced_outcome=1)
        # every amplitude away from PEX at (0, 00) is exactly 0.0
        assert engine.support(ses.state, pauli.DATA_PARTICLES) == pauli.DATA_PARTICLES

    def test_requires_external(self, zero_session_five):
        with pytest.raises(ValueError):
            encode(zero_session_five.clone(), 1.0, 0.0)

    def test_unnormalized_rejected(self, zero_session_six):
        with pytest.raises(ValueError):
            encode(zero_session_six.clone(), 1.0, 1.0)

    def test_fast_path_equals_walk_encode(self, zero_session_six):
        ses = zero_session_six.clone()
        encode(ses, 0.8, 0.6j, forced_outcome=0)
        five = engine.take_slice(ses.state, range(5))
        fast = encoded_session(0.8, 0.6j)
        assert engine.fidelity(five, fast.state) == pytest.approx(1.0, abs=1e-12)

    def test_sessions_from_the_prepared_cache_do_not_alias(self):
        first = encoded_session(0.8, 0.6j)
        want = first.state.amps.copy()
        with pytest.raises(ValueError, match="read-only"):
            first.state.amps[:] = 0
        second = encoded_session(0.8, 0.6j)
        assert not np.shares_memory(first.state.amps, second.state.amps)
        first.state = first.state.copy()   # extend's array is read-only
        first.state.amps[:] = 0
        assert np.array_equal(second.state.amps, want)
        with pytest.raises(ValueError, match="read-only"):
            second.state.amps *= 2
        second.state = second.state.copy()
        second.state.amps *= 2
        assert np.array_equal(encoded_session(0.8, 0.6j).state.amps, want)
        twin = second.clone()
        assert not np.shares_memory(twin.state.amps, second.state.amps)

    def test_branch_sessions_own_their_states(self):
        ses = encoded_session(0.8, 0.6j)
        inject_error(ses, errors.sample_random_error(np.random.default_rng(4), "coin", 2))
        before = ses.state.amps.copy()
        branches = [s for _, s in run_cycle(ses, all_branches=True)]
        assert len(branches) > 1
        assert np.array_equal(ses.state.amps, before) and not ses.history.cycles
        for a in branches:
            assert not np.shares_memory(a.state.amps, ses.state.amps)
            assert all(not np.shares_memory(a.state.amps, b.state.amps)
                       for b in branches if b is not a)

    def test_encode_and_t_leave_an_aliased_input_alone(self, zero_session_six):
        for ses, run in ((zero_session_six.clone(),
                          lambda s: encode(s, 0.8, 0.6j, forced_outcome=1)),
                         (encoded_session(0.8, 0.6j, layout=SIX),
                          lambda s: apply_logical_gate(s, "T"))):
            held, twin = ses.state, ses.clone()
            run(ses)
            assert ses.state is not held
            assert np.array_equal(held.amps, twin.state.amps)


class TestDataSliceReadout:
    """``logical_readout`` on the slice of the state's exact support
    against the axis words' expectations on the whole aligned state."""

    @staticmethod
    def assert_matches_full_array(ses):
        got = logical_readout(ses).bloch
        full = ses.clone().align().state   # only the comparison copy is aligned
        for value, name in zip(got, "xyz"):
            want = sum(coef * ses.frame.sign_for(word) * engine.expectation(full, word)
                       for coef, word in ses.axes.axes[name])
            assert abs(value - want) <= 1e-15

    @pytest.mark.parametrize("family", ["coin", "shift"])
    def test_five_after_cycles_of_both_parities(self, family):
        for target in (0, 2, 4):
            rng = np.random.default_rng([31, target])
            ses = encoded_session(*_random_amps(rng), rng=rng)
            for parity in (0, 1):
                inject_error(ses, errors.sample_random_error(rng, family, target))
                run_cycle(ses)
                assert ses.history.cycles[-1].parity == parity
                update_frame(ses)
                self.assert_matches_full_array(ses)

    def test_six_after_gate_words(self):
        rng = np.random.default_rng(32)
        for word in ("T", "H", "H T", "S", "T T H", "H S Z", "H S T", "S T T"):
            ses = encoded_session(*_random_amps(rng), layout=SIX)
            apply_word(ses, word)
            self.assert_matches_full_array(ses)

    def test_flipped_ancilla_is_read_on_its_support(self):
        ses = encoded_session(0.8, 0.6j)
        ses.state = engine.apply_pauli_word(ses.state, PauliWord.single(pauli.P1, "c", "X"))
        assert engine.support(ses.state, pauli.DATA_PARTICLES) == (0, pauli.P1, 2, 4)
        self.assert_matches_full_array(ses)

    def test_unparked_external_walker_is_read_on_its_support(self):
        ses = encoded_session(0.8, 0.6j, layout=SIX)
        ses.state = engine.apply_local_coin(ses.state, pauli.PEX, engine.COIN_H)
        assert engine.support(ses.state, pauli.DATA_PARTICLES) == (0, 2, 4, pauli.PEX)
        self.assert_matches_full_array(ses)

    def test_readout_leaves_the_session_as_it_was(self):
        """A read neither walks nor aligns: the state (the same object,
        the same bytes), the displacement, the axes and the frame stay,
        and the next cycle runs parity 1."""
        ses = apply_word(encoded_session(0.8, 0.6j), "H S")
        run_cycle(ses, forced={f"s{i}": 0 for i in range(6)})
        update_frame(ses)
        state, amps = ses.state, ses.state.amps.tobytes()
        axes = {k: list(v) for k, v in ses.axes.axes.items()}
        frame = (ses.frame.word, list(ses.frame.log), ses.frame.uncorrectable)
        logical_readout(ses)
        assert ses.state is state and ses.state.amps.tobytes() == amps
        assert ses.displacement == 2
        assert ses.axes.axes == axes
        assert (ses.frame.word, ses.frame.log, ses.frame.uncorrectable) == frame
        run_cycle(ses, forced={f"s{i}": 0 for i in range(6)})
        assert ses.history.cycles[-1].parity == 1

    def test_word_outside_the_data_walkers_raises(self):
        ses = encoded_session(0.8, 0.6j)
        ses.axes.axes["x"] = [(1.0, PauliWord.single(pauli.P1, "c", "Z"))]
        with pytest.raises(ValueError, match="outside the data walkers"):
            logical_readout(ses)


class TestCycles:
    def test_undisturbed_all_zero_m(self):
        ses = encoded_session(0.8, 0.6)
        for _ in range(2):
            ses = run_cycle(ses, forced={f"s{i}": 0 for i in range(6)})
        assert [c.m_str() for c in ses.history.cycles] == ["000000", "000000"]

    def test_qnd_state_preserved(self):
        ses = encoded_session(0.8, 0.6)
        start = ses.state.copy()
        ses = run_cycle(ses, forced={f"s{i}": 0 for i in range(6)})
        ses.align()
        assert engine.fidelity(ses.state, start) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("bit", [-1, 2])
    def test_forced_outcome_outside_zero_and_one_raises(self, bit):
        ses = encoded_session(0.8, 0.6)
        inject_error(ses, errors.PauliFlip(PauliWord.single(0, "x", "X"), 0))
        before = ses.state.amps.copy()
        with pytest.raises(ValueError, match="must be 0 or 1"):
            run_cycle(ses, forced={"s0": bit, **{f"s{i}": 0 for i in range(1, 6)}})
        assert ses.history.cycles == [] and np.array_equal(ses.state.amps, before)

    def test_phase_flip_syndrome(self):
        ses = encoded_session(1.0, 0.0)
        inject_error(ses, errors.PauliFlip(PauliWord.single(4, "c", "Z"), 4))
        branches = run_cycle(ses, all_branches=True)
        assert len(branches) == 1
        assert branches[0][1].history.cycles[-1].m_str() == "100000"

    def test_gauge_equivalent_errors_same_syndrome(self):
        records = []
        for role in ("x", "c"):
            ses = encoded_session(0.6, 0.8)
            inject_error(ses, errors.PauliFlip(PauliWord.single(2, role, "Z"), 2))
            _, s = run_cycle(ses, all_branches=True)[0]
            records.append(s.history.cycles[-1].m_str())
        assert records[0] == records[1] == "110000"

    def test_m_bits_relative_to_previous_cycle(self):
        ses = encoded_session(1.0, 0.0)
        inject_error(ses, errors.PauliFlip(PauliWord.single(0, "x", "X"), 0))
        ses = run_cycle(ses, forced=None, all_branches=True)[0][1]
        assert ses.history.cycles[-1].m_str() == "000001"
        # error persists; next cycle sees no further flips
        ses = run_cycle(ses, all_branches=True)[0][1]
        assert ses.history.cycles[-1].m_str() == "000000"


class TestFrame:
    def test_trivial_m_keeps_frame(self):
        frame = PauliFrame()
        frame.absorb((0,) * 6)
        assert frame.word == PauliWord.identity()
        assert not frame.uncorrectable

    def test_composed_phase_and_bit(self):
        frame = PauliFrame()
        frame.absorb(syndrome_from_str("001111"))
        assert frame.word == PauliWord.single(2, "c", "X")

    def test_self_inverse_corrections(self):
        frame = PauliFrame()
        m = syndrome_from_str("000011")
        frame.absorb(m)
        frame.absorb(m)
        assert frame.word == PauliWord.identity()

    def test_uncorrectable_reported_not_raised(self):
        frame = PauliFrame()
        frame.absorb(syndrome_from_str("000110"))
        assert frame.uncorrectable

    def test_frame_adjusts_readout_sign(self):
        ses = encoded_session(1.0, 0.0)
        ses.state = engine.apply_pauli_word(ses.state, LOGICAL_X)
        assert np.allclose(logical_readout(ses).bloch, (0, 0, -1), atol=1e-12)
        ses.frame.word = LOGICAL_X  # pretend the decoder identified the flip
        assert np.allclose(logical_readout(ses).bloch, (0, 0, 1), atol=1e-12)

    def test_physical_application_matches_virtual(self):
        ses = encoded_session(0.8, 0.6j)
        want = logical_readout(ses).bloch
        inject_error(ses, errors.PauliFlip(PauliWord.single(0, "y", "X"), 0))
        ses = run_cycle(ses, all_branches=True)[0][1]
        update_frame(ses)
        virt = logical_readout(ses).bloch
        apply_frame_physically(ses)
        phys = logical_readout(ses).bloch
        assert np.allclose(virt, phys, atol=1e-10)
        assert np.allclose(virt, want, atol=1e-10)

    def test_physical_application_checks_norm(self):
        ses = encoded_session(0.8, 0.6j)
        ses.frame.word = PauliWord.single(0, "y", "X")
        ses.state = ses.state.copy()   # extend's array is read-only
        ses.state.amps *= 1.01
        with pytest.raises(ValueError):
            apply_frame_physically(ses)


class TestCorrectability:
    @pytest.mark.parametrize("target", [0, 2, 4])
    def test_every_single_qubit_flip_corrected(self, target):
        base = encoded_session(0.48 + 0.36j, 0.8)
        want = logical_readout(base.clone()).bloch
        for word in all_single_qubit_paulis():
            if word.particles()[0] != target:
                continue
            ses = base.clone()
            inject_error(ses, errors.PauliFlip(word, target))
            for _, s in run_cycle(ses, all_branches=True):
                update_frame(s)
                got = logical_readout(s).bloch
                assert bloch_fidelity(want, got) > 1 - 1e-10, word.render()

    def test_random_unitary_errors_corrected(self, rng):
        for family in ("coin", "shift"):
            for target in (0, 2, 4):
                ses = encoded_session(*_random_amps(rng), rng=rng)
                want = logical_readout(ses.clone()).bloch
                inject_error(ses, errors.sample_random_error(rng, family, target))
                for _, s in run_cycle(ses, all_branches=True):
                    update_frame(s)
                    assert bloch_fidelity(want, logical_readout(s).bloch) > 1 - 1e-10

    def test_deferred_equals_percycle_correction(self):
        flips = [PauliWord.single(0, "c", "X"), PauliWord.single(2, "y", "X"),
                 PauliWord.single(4, "c", "Y")]
        deferred = encoded_session(0.8, -0.6j)
        want = logical_readout(deferred.clone()).bloch
        percycle = deferred.clone()
        forced_all = None
        for flip in flips:
            target = flip.particles()[0]
            inject_error(deferred, errors.PauliFlip(flip, target))
            inject_error(percycle, errors.PauliFlip(flip, target))
            deferred = run_cycle(deferred, all_branches=True)[0][1]
            update_frame(deferred)
            percycle = run_cycle(percycle, all_branches=True)[0][1]
            update_frame(percycle)
            apply_frame_physically(percycle)
        a = logical_readout(deferred).bloch
        b = logical_readout(percycle).bloch
        assert np.allclose(a, b, atol=1e-12)
        assert bloch_fidelity(want, a) > 1 - 1e-10


class TestGaugeInsensitivity:
    def test_gauge_products_do_not_move_readout(self):
        ses = encoded_session(0.8, 0.6j)
        want = logical_readout(ses).bloch
        for g in GAUGES + (pw_mul(GX0, GZ1), pw_product(GAUGES)):
            twisted = ses.clone()
            twisted.state = engine.apply_pauli_word(twisted.state, g)
            got = logical_readout(twisted).bloch
            assert np.allclose(got, want, atol=1e-10), g.render()


class TestMeasureG:
    def _cycled(self):
        ses = prepare_logical_zero(SIX)
        return run_cycle(ses, forced={f"s{i}": 0 for i in range(6)})

    def test_requires_cycle(self, zero_session_six):
        with pytest.raises(ValueError):
            measure_g(zero_session_six.clone(), all_branches=True)

    def test_repeatable(self):
        ses = self._cycled()
        for p, sign, s in measure_g(ses, all_branches=True):
            again = measure_g(s.clone(), all_branches=True)
            assert len(again) == 1
            assert again[0][1] == sign

    def test_read_commutes_with_g(self):
        # the walk read never disturbs a g eigenstate's eigenvalue, even
        # though its reported product is a neighbor-pair read, not the
        # g eigenvalue itself
        ses = self._cycled()
        ses.align()
        for gsign in (1, -1):
            s2 = ses.clone()
            s2.state, _ = engine.project_pauli(s2.state, CRITERIA_G, gsign)
            for p, sign, s3 in measure_g(s2, all_branches=True):
                assert engine.expectation(s3.state, CRITERIA_G) == pytest.approx(gsign, abs=1e-10)

    @staticmethod
    def _chained(ses, **policy):
        """(probability, sign, outcomes) of the ZZ read, then the XX read
        on each of its branches, as two separate program runs."""
        ses.align()
        e4 = ses.history.current_eigenvalue(4)
        out = []
        for b1 in programs.run_program(ses.state, programs.build_gauge_zz_measurement(),
                                       **policy):
            for b2 in programs.run_program(b1.state, programs.build_gauge_xx_measurement(),
                                           **policy):
                bits = {**b1.outcomes, **b2.outcomes}
                sign = e4 * int(np.prod([1 - 2 * b for b in bits.values()]))
                out.append((b1.probability * b2.probability, sign, bits))
        return out

    def test_one_program_equals_two_chained_reads(self):
        ses = self._cycled()
        want = self._chained(ses.clone(), all_branches=True)
        got = measure_g(ses.clone(), all_branches=True)
        assert len(got) == len(want) == 4
        assert [sign for _, sign, _ in got] == [sign for _, sign, _ in want]
        assert np.allclose([p for p, _, _ in got], [p for p, _, _ in want], rtol=0, atol=1e-12)
        for _, _, bits in want:
            (p_ref, sign_ref, _), = self._chained(ses.clone(), forced=bits)
            sign, _ = measure_g(ses.clone(), forced=bits)
            assert sign == sign_ref
            assert p_ref == pytest.approx(0.25, abs=1e-12)

    def test_zz_reads_are_stabilizer_products(self):
        ses = self._cycled()
        results = measure_g(ses, all_branches=True)
        assert sum(p for p, _, _ in results) == pytest.approx(1.0, abs=1e-12)
        # e0 e1 = e2 e3 = +1 here, so the zz contribution never flips signs
        signs = {sign for _, sign, _ in results}
        assert signs == {1, -1}


class TestLogicalGates:
    @pytest.mark.parametrize("word", ["H", "S", "Z", "T", "H H", "T T", "S S",
                                      "H T", "T T H", "H S T T"])
    def test_words_match_ideal_composition(self, word):
        for alpha, beta in ((1.0, 0.0), (SQ2, SQ2), (SQ2, 1j * SQ2), (0.8, 0.6j)):
            ses = encoded_session(alpha, beta, layout=SIX)
            start = logical_readout(ses).bloch
            apply_word(ses, word)
            got = logical_readout(ses).bloch
            want = ideal_bloch_map(word, start)
            assert np.allclose(got, want, atol=1e-8), (word, alpha, beta)

    def test_t_on_plus(self):
        ses = encoded_session(SQ2, SQ2, layout=SIX)
        apply_logical_gate(ses, "T")
        got = logical_readout(ses).bloch
        assert np.allclose(got, (np.cos(np.pi / 4), np.sin(np.pi / 4), 0), atol=1e-10)

    def test_t_squared_is_s(self):
        a = encoded_session(SQ2, SQ2, layout=SIX)
        apply_word(a, "T T")
        b = encoded_session(SQ2, SQ2, layout=SIX)
        apply_word(b, "S")
        assert np.allclose(logical_readout(a).bloch, logical_readout(b).bloch, atol=1e-10)
        assert np.allclose(logical_readout(b).bloch, (0, 1, 0), atol=1e-10)

    def test_t_leaves_external_parked(self):
        ses = encoded_session(0.6, 0.8j, layout=SIX)
        apply_logical_gate(ses, "T")
        # PEX is the most significant walker: away from b = 0 it holds
        # only rounding residue, so it neither moved nor got entangled
        assert np.max(np.abs(ses.state.amps.reshape(8, -1)[1:])) < 1e-15

    def test_h_is_involution_on_states(self):
        ses = encoded_session(0.8, 0.6, layout=SIX)
        start = ses.state.copy()
        apply_word(ses, "H H")
        assert engine.fidelity(ses.state, start) == pytest.approx(1.0, abs=1e-12)

    def test_t_requires_external(self):
        # displaced by a cycle and with conjugated axes, so an align or an
        # axis update before the check would show
        ses = run_cycle(apply_word(encoded_session(0.8, 0.6j, layout=FIVE), "H S"),
                        all_branches=True)[0][1]
        assert ses.displacement == 2
        amps, axes = ses.state.amps.copy(), {k: list(v) for k, v in ses.axes.axes.items()}
        with pytest.raises(ValueError):
            apply_logical_gate(ses, "T")
        assert ses.displacement == 2
        assert np.array_equal(ses.state.amps, amps)
        assert ses.axes.axes == axes

    def test_unknown_gate(self):
        ses = encoded_session(1.0, 0.0, layout=SIX)
        with pytest.raises(ValueError):
            apply_logical_gate(ses, "Q")

    @pytest.mark.parametrize("layout,word", [(SIX, "H Q"), (FIVE, "H T"), (FIVE, "S Q H")],
                             ids=["SIX-unknown", "FIVE-T", "FIVE-unknown"])
    def test_failing_word_leaves_the_session_untouched(self, layout, word):
        """A word is checked whole before its first gate runs."""
        # displaced by a cycle and with conjugated axes, so a first gate
        # (it aligns and conjugates) would show
        ses = run_cycle(apply_word(encoded_session(0.8, 0.6j, layout=layout), "H S"),
                        all_branches=True)[0][1]
        assert ses.displacement == 2
        state = ses.state
        amps, axes = state.amps.tobytes(), {k: list(v) for k, v in ses.axes.axes.items()}
        with pytest.raises(ValueError):
            apply_word(ses, word)
        assert ses.state is state and ses.state.amps.tobytes() == amps
        assert ses.displacement == 2
        assert ses.axes.axes == axes


class TestCycleRecord:
    def test_coin_x_on_p2_is_read_and_framed(self):
        ses = encoded_session(0.8, 0.6)
        inject_error(ses, errors.PauliFlip(PauliWord.single(2, "c", "X"), 2))
        ses = run_cycle(ses, all_branches=True)[0][1]
        update_frame(ses)
        assert [c.m_str() for c in ses.history.cycles] == ["001111"]
        assert ses.frame.word == PauliWord.single(2, "c", "X")
        assert not ses.frame.uncorrectable


def _random_amps(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    theta = np.arccos(np.clip(v[2], -1, 1))
    phi = np.arctan2(v[1], v[0])
    return np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)
