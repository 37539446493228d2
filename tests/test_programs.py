"""Compiled walk programs: structure, transform algebra, syndrome steps."""

import numpy as np
import pytest

from walkqec import codec, engine, errors, oracle, pauli, programs
from walkqec.engine import COIN_H, StateVector, all_at_origin, fidelity
from walkqec.pauli import (DATA_PARTICLES, LOGICAL_X, LOGICAL_Z, PEX,
                           PauliWord, STABILIZERS, from_triples, pw_mul)
from walkqec.programs import (Coin, MeasureCoin, Neighbor, Shift, WalkProgram,
                              build_basis_transform, build_cnot_coin_to_logical,
                              build_cphase, build_full_cycle,
                              build_gauge_xx_measurement,
                              build_gauge_zz_measurement,
                              build_logical_clifford, build_syndrome_step,
                              run_program, run_unitary)

from conftest import position_distribution, random_state
from reference import interpret_program, inverted

FIVE, SIX = engine.FIVE, engine.SIX


def prepared_zero():
    return codec.prepare_logical_zero(FIVE).state


class TestStructure:
    def test_full_cycle_iteration_count(self):
        # 6 + 6 + (8 + 6 + 8) walk iterations, counted by shifts
        assert build_full_cycle(0).iteration_count() == 34
        assert build_full_cycle(1).iteration_count() == 34

    def test_cycle_order_swaps_with_parity(self):
        def first_tag(parity):
            for step in build_full_cycle(parity).steps:
                if isinstance(step, MeasureCoin):
                    return step.tag
        assert first_tag(0) == "s0"
        assert first_tag(1) == "s1"

    def test_no_neighbor_inside_transform(self):
        prog = build_basis_transform(DATA_PARTICLES)
        assert not any(isinstance(s, Neighbor) for s in prog.steps)
        assert prog.iteration_count() == 8

    def test_transform_of_no_targets_is_bare_shifts(self):
        prog = build_basis_transform(())
        assert all(isinstance(s, Shift) for s in prog.steps)

    def test_listing_serialization(self):
        text = build_syndrome_step("s0s2").listing()
        lines = text.splitlines()
        assert lines[0].startswith("# program")
        assert any("measure P1 -> s0" in ln for ln in lines)
        assert any("measure P3 -> s2" in ln for ln in lines)
        assert any("coin" in ln and "P1@10:X" in ln for ln in lines)

    def test_cnot_iteration_count(self):
        assert build_cnot_coin_to_logical().iteration_count() == 24


class TestCachedBuilders:
    def test_basis_transform_is_cached_by_targets_and_frame(self):
        assert build_basis_transform([4]) is build_basis_transform((4,))
        assert build_basis_transform((4,), frame=2) is build_basis_transform([4], 2)
        assert build_basis_transform((4,), frame=2) is not build_basis_transform((4,))

    @pytest.mark.parametrize("targets, frame", [((1,), 0), ((0, PEX), 0), ((0,), 1)])
    def test_bad_targets_and_frames_still_raise(self, targets, frame):
        for _ in range(2):
            with pytest.raises(ValueError):
                build_basis_transform(targets, frame)

    def test_interaction_block_is_the_cnot_middle(self):
        block = programs.build_interaction_block()
        assert block is programs.build_interaction_block()
        assert block.iteration_count() == 8
        transform = build_basis_transform((4,)).steps
        cnot = build_cnot_coin_to_logical().steps
        assert cnot == transform + block.steps + transform


class TestBasisTransform:
    def test_intertwines_xxx_and_zzz(self):
        lay1 = engine.Layout(1, False)
        w = oracle.program_matrix_on_particle(build_basis_transform((0,)), lay1, 0)
        order = [pauli.q(0, r) for r in pauli.ROLES]
        xxx = oracle.dense_of(from_triples({0: "XXX"}), order)
        zzz = oracle.dense_of(from_triples({0: "ZZZ"}), order)
        assert np.max(np.abs(w @ xxx - zzz @ w)) < 1e-12
        assert np.max(np.abs(w @ zzz - xxx @ w)) < 1e-12

    def test_is_involution(self):
        lay1 = engine.Layout(1, False)
        w = oracle.program_matrix_on_particle(build_basis_transform((0,)), lay1, 0)
        assert np.max(np.abs(w @ w - np.eye(8))) < 1e-12

    def test_shifted_frame_compile(self):
        lay1 = engine.Layout(1, False)
        w0 = oracle.program_matrix_on_particle(build_basis_transform((0,)), lay1, 0)
        w2 = oracle.program_matrix_on_particle(build_basis_transform((0,), frame=2), lay1, 0)
        sig = np.zeros((8, 8), dtype=complex)
        for v in range(4):
            sig[v, v] = 1
            sig[4 + engine.V_SUCC[v], 4 + v] = 1
        s2 = sig @ sig
        assert np.max(np.abs(w2 - s2 @ w0 @ s2.conj().T)) < 1e-12

    def test_position_marginal_returns_on_x_eigenstate_mixtures(self):
        # a uniform mixture over either XXX eigenspace keeps the walker's
        # position marginal (uniform) through the transform
        lay1 = engine.Layout(1, False)
        xxx = oracle.dense_of(from_triples({0: "XXX"}), [pauli.q(0, r) for r in pauli.ROLES])
        vals, vecs = np.linalg.eigh(xxx)
        prog = build_basis_transform((0,))
        for lam in (-1.0, 1.0):
            cols = [k for k in range(8) if abs(vals[k] - lam) < 1e-9]
            before = np.zeros(4)
            after = np.zeros(4)
            for k in cols:
                st = StateVector(lay1, vecs[:, k].astype(complex))
                before += position_distribution(st, 0) / len(cols)
                after += position_distribution(run_unitary(st, prog), 0) / len(cols)
            assert np.max(np.abs(before - 0.25)) < 1e-12
            assert np.max(np.abs(after - before)) < 1e-12

    def test_conjugates_gauge_reads(self):
        lay1 = engine.Layout(1, False)
        w = oracle.program_matrix_on_particle(build_basis_transform((0,)), lay1, 0)
        order = [pauli.q(0, r) for r in pauli.ROLES]
        izz = oracle.dense_of(from_triples({0: "IZZ"}), order)
        ixx = oracle.dense_of(from_triples({0: "IXX"}), order)
        assert np.max(np.abs(w @ izz @ w.conj().T - ixx)) < 1e-12


class TestSyndromeSteps:
    def test_fresh_codeword_reads_references(self):
        st = prepared_zero()
        for pair, tags in (("s0s2", ("s0", "s2")), ):
            branches = run_program(st, build_syndrome_step(pair), all_branches=True)
            assert len(branches) == 1
            assert all(branches[0].outcomes[t] == 0 for t in tags)

    def test_injected_flip_flips_both_zz_reads(self):
        st = engine.apply_pauli_word(prepared_zero(), PauliWord.single(0, "c", "X"))
        branches = run_program(st, build_syndrome_step("s0s2"), all_branches=True)
        assert branches[0].outcomes["s0"] == 1
        out = run_program(branches[0].state, build_syndrome_step("s1s3"), all_branches=True)
        assert out[0].outcomes["s1"] == 1

    def test_unknown_pair_is_value_error(self):
        with pytest.raises(ValueError, match="unknown syndrome pair 's9s9'"):
            build_syndrome_step("s9s9")

    def test_no_excitation_reads_zero(self):
        st = all_at_origin(FIVE)
        branches = run_program(st, build_syndrome_step("s0s2"), all_branches=True)
        assert branches[0].outcomes == {"s0": 0, "s2": 0}

    def test_ancillas_return_home_before_measurement(self):
        # instrument the program: at each MeasureCoin, the measured walker
        # must sit at vertex 00 with probability 1
        st = prepared_zero()
        prog = build_full_cycle(0)
        branches = [programs.Branch(st.copy())]
        for step in prog.steps:
            if isinstance(step, MeasureCoin):
                for br in branches:
                    dist = position_distribution(br.state, step.particle)
                    assert dist[engine.V_OF_LABEL["00"]] == pytest.approx(1.0, abs=1e-12)
            branches = programs.run_program(
                branches[0].state, WalkProgram("one", (step,)),
                all_branches=True) if isinstance(step, MeasureCoin) else branches
            if not isinstance(step, MeasureCoin):
                for br in branches:
                    br.state = programs.run_program(br.state, WalkProgram("one", (step,)),
                                                    all_branches=True)[0].state

    def test_qnd_over_two_cycles(self):
        st = prepared_zero()
        cur = st
        for parity in (0, 1):
            branches = run_program(cur, build_full_cycle(parity), all_branches=True)
            assert len(branches) == 1
            assert all(v == 0 for v in branches[0].outcomes.values())
            cur = branches[0].state
        assert fidelity(cur, st) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        st = prepared_zero()
        out = run_program(st, build_full_cycle(0), all_branches=True)[0].state
        assert abs(out.norm() - 1) < 1e-12


class TestInversion:
    def test_measurement_free_programs_invert(self, rng):
        st = random_state(SIX, rng)
        for prog in (build_basis_transform(DATA_PARTICLES), build_cnot_coin_to_logical(),
                     build_cphase(), build_logical_clifford("H")):
            back = run_unitary(run_unitary(st, prog), inverted(prog))
            assert np.max(np.abs(back.amps - st.amps)) < 1e-10

    def test_measuring_program_rejects_inversion(self):
        with pytest.raises(ValueError):
            inverted(build_full_cycle(0))


class TestCnotAndCphase:
    def test_control_off_identity(self):
        ses = codec.prepare_logical_zero(SIX)
        out = run_unitary(ses.state, build_cnot_coin_to_logical())
        assert fidelity(out, ses.state) == pytest.approx(1.0, abs=1e-12)

    def test_control_on_flips_logical(self):
        ses = codec.prepare_logical_zero(SIX)
        st = engine.apply_pauli_word(ses.state, PauliWord.single(PEX, "c", "X"))
        out = run_unitary(st, build_cnot_coin_to_logical())
        assert engine.expectation(out, LOGICAL_Z) == pytest.approx(-1.0, abs=1e-12)

    def test_cphase_plus_branch_unchanged(self):
        ses = codec.prepare_logical_zero(SIX)
        plus = engine.apply_local_coin(ses.state, PEX, COIN_H)
        out = run_unitary(plus, build_cphase())
        assert fidelity(out, plus) == pytest.approx(1.0, abs=1e-10)

    def test_cphase_minus_branch_applies_conjugated_x(self):
        ses = codec.prepare_logical_zero(SIX)
        minus = engine.apply_local_coin(
            engine.apply_pauli_word(ses.state, PauliWord.single(PEX, "c", "X")),
            PEX, COIN_H)
        out = run_unitary(minus, build_cphase())
        d_word = pauli.conjugate_transversal(LOGICAL_X, "H")
        expect = engine.apply_pauli_word(minus, d_word)
        assert fidelity(out, expect) == pytest.approx(1.0, abs=1e-12)


class TestGaugeMeasurements:
    def test_zz_outcomes_are_stabilizer_products(self):
        st = prepared_zero()
        branches = run_program(st, build_gauge_zz_measurement(), all_branches=True)
        assert len(branches) == 1
        assert branches[0].outcomes == {"gzz:p1": 0, "gzz:p3": 0}
        assert fidelity(branches[0].state, st) == pytest.approx(1.0, abs=1e-12)

    def test_zz_flips_with_anticommuting_injection(self):
        st = engine.apply_pauli_word(prepared_zero(), PauliWord.single(0, "x", "X"))
        branches = run_program(st, build_gauge_zz_measurement(), all_branches=True)
        # (Xx)_P0 flips s0 only: P1's read of s0*s1 flips
        assert branches[0].outcomes["gzz:p1"] == 1
        assert branches[0].outcomes["gzz:p3"] == 0

    def test_xx_read_is_repeatable(self):
        st = prepared_zero()
        first = run_program(st, build_gauge_xx_measurement(), all_branches=True)
        assert len(first) == 4  # genuinely random gauge read
        for br in first:
            again = run_program(br.state, build_gauge_xx_measurement(), all_branches=True)
            assert len(again) == 1
            assert again[0].outcomes["gxx:p1"] == br.outcomes["gxx:p1"]
            assert again[0].outcomes["gxx:p3"] == br.outcomes["gxx:p3"]

    def test_zz_preserves_codeword(self):
        st = prepared_zero()
        out = run_program(st, build_gauge_zz_measurement(), all_branches=True)[0].state
        assert fidelity(out, st) == pytest.approx(1.0, abs=1e-12)


class TestLogicalCliffordPrograms:
    def test_single_coin_step(self):
        for gate in ("H", "S", "Z"):
            prog = build_logical_clifford(gate)
            assert len(prog.steps) == 1
            assert isinstance(prog.steps[0], Coin)

    def test_h_twice_is_identity(self):
        st = prepared_zero()
        prog = build_logical_clifford("H")
        out = run_unitary(run_unitary(st, prog), prog)
        assert fidelity(out, st) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            build_logical_clifford("X")


class TestGoldenListing:
    def test_syndrome_step_matches_golden_file(self):
        import pathlib
        golden = pathlib.Path(__file__).parent / "data" / "syndrome_s0s2.txt"
        assert build_syndrome_step("s0s2").listing() + "\n" == golden.read_text()


def off_park(state, particle, rng):
    """``state`` with ``particle`` spread by a random 8x8 unitary: its
    amplitude leaves vertex 00 and coin 0."""
    u8, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    return engine.apply_particle_unitary(state, particle, u8)


def cycle_inputs(rng):
    """Parity 0 and parity 1 inputs: an encoded state with a coin error,
    and one branch of its cycle with a shift error."""
    alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
    norm = np.hypot(abs(alpha), abs(beta))
    ses = codec.encoded_session(alpha / norm, beta / norm)
    codec.inject_error(ses, errors.sample_random_error(rng, "coin", 2))
    _, second = codec.run_cycle(ses.clone(), all_branches=True)[-1]
    codec.inject_error(second, errors.sample_random_error(rng, "shift", 0))
    return {0: ses.state, 1: second.state}


def policies(reference_branches, seed):
    """Seeded, forced (the last branch-summed outcomes) and all-branches,
    each as a callable giving a fresh policy."""
    forced = dict(reference_branches[-1].outcomes)
    return {"seeded": lambda: {"rng": np.random.default_rng(seed)},
            "forced": lambda: {"forced": forced},
            "all": lambda: {"all_branches": True}}


def assert_matches_reference(state, program, seed):
    everything = interpret_program(state, program, all_branches=True)
    for name, policy in policies(everything, seed).items():
        reference = interpret_program(state, program, **policy())
        fused = run_program(state, program, **policy())
        assert [b.outcomes for b in fused] == [b.outcomes for b in reference], name
        for a, b in zip(fused, reference):
            assert abs(a.probability - b.probability) < 1e-12, name
            assert np.max(np.abs(a.state.amps - b.state.amps)) < 1e-12, name


class TestScheduledProgramsMatchTheReference:
    """Maps moved ahead of measurements and re-parks in the collapse give
    the per-step reference's branches under every policy."""

    @pytest.mark.parametrize("ancilla", ["parked", "off-park"])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_cycles(self, parity, ancilla, rng):
        st = cycle_inputs(rng)[parity]
        if ancilla == "off-park":
            st = off_park(st, pauli.P1, rng)
        assert_matches_reference(st, build_full_cycle(parity), seed=parity)

    @pytest.mark.parametrize("ancilla", ["parked", "off-park"])
    def test_gauge_read(self, ancilla, rng):
        st = codec.encoded_session(0.8, 0.6j).state
        if ancilla == "off-park":
            st = off_park(st, pauli.P3, rng)
        assert_matches_reference(st, programs.build_gauge_measurement(), seed=3)

    @pytest.mark.parametrize("ancilla", ["parked", "off-park"])
    def test_encoder(self, ancilla, rng):
        st = engine.apply_local_coin(codec.prepare_logical_zero(SIX).state, PEX,
                                     errors._haar_2x2(rng))
        if ancilla == "off-park":
            st = off_park(st, PEX, rng)
        assert_matches_reference(st, programs.build_encode(), seed=4)


def nearly_z(target, miss=1e-3):
    """A coin error that is Z up to a rotation of ``miss``: the reads it
    flips, at either parity, come out 0 with probability ~``miss`` ** 2."""
    theta = np.pi / 2 - miss
    u = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * engine.COIN_Z
    return errors.CoinError((u,) * 4, target)


class TestBranchSummedMass:
    """Each outcome's probability is its own coin half's weight, so the
    branches of a cycle carry the whole mass and a rare branch is
    normalized by its own weight, not by 1 minus the other's."""

    @pytest.mark.parametrize("parity", [0, 1])
    def test_cycle_probabilities_sum_to_one(self, parity, rng):
        inputs = [cycle_inputs(rng)[parity] for _ in range(3)]
        for target in DATA_PARTICLES:
            ses = codec.encoded_session(0.6, 0.8j)
            if parity:
                ses.state = run_program(ses.state, build_full_cycle(0), all_branches=True)[0].state
            inputs.append(codec.inject_error(ses, nearly_z(target)).state)
        for st in inputs:
            branches = run_program(st, build_full_cycle(parity), all_branches=True)
            assert len(branches) > 1
            assert abs(sum(b.probability for b in branches) - 1.0) < 1e-13
            for b in branches:
                assert abs(b.state.norm() - 1.0) < 1e-13
