"""The compile pass: segment shapes, equality with the per-step reference
executor, and the compiled-program cache."""

import numpy as np
import pytest

from walkqec import codec, engine, errors, programs, verify
from walkqec.engine import COIN_X, CoinSpec
from walkqec.pauli import DATA_PARTICLES, P1, P3, PEX, PauliWord
from walkqec.programs import (Coin, MeasureCoin, Neighbor, Shift, SignedPermutation,
                              WalkProgram, WalkerMaps,
                              build_basis_transform, build_cnot_coin_to_logical, build_cphase,
                              build_encode, build_full_cycle, build_gauge_measurement,
                              build_gauge_xx_measurement, build_gauge_zz_measurement,
                              build_interaction_block, build_logical_clifford, build_logical_t,
                              build_syndrome_step, compile_program, run_program)

from conftest import random_state
from reference import (coin_view, interpret_program, inverted, reset_reference,
                       swap_reference)

FIVE, SIX = engine.FIVE, engine.SIX


def shape(program, layout):
    """Segments as strings: walker-map particles, "perm", or the step class."""
    out = []
    for seg in compile_program(program, layout):
        if isinstance(seg, WalkerMaps):
            out.append("maps" + "".join(f"P{p}" for p, _ in seg.maps))
        elif isinstance(seg, SignedPermutation):
            out.append("perm")
        else:
            out.append(type(seg).__name__)
    return out


def operands(program, layout):
    """(particle, map) pairs of the program's WalkerMaps segments, in order."""
    return [pm for seg in compile_program(program, layout) if isinstance(seg, WalkerMaps)
            for pm in seg.maps]


def assert_same_branches(fused, reference):
    assert [b.outcomes for b in fused] == [b.outcomes for b in reference]
    for a, b in zip(fused, reference):
        assert abs(a.probability - b.probability) < 1e-12
        assert np.max(np.abs(a.state.amps - b.state.amps)) < 1e-12


def assert_identical_branches(a, b):
    assert [br.outcomes for br in a] == [br.outcomes for br in b]
    assert [br.probability for br in a] == [br.probability for br in b]
    assert [br.state.amps.tobytes() for br in a] == [br.state.amps.tobytes() for br in b]


def encoded_random(rng):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps /= np.linalg.norm(amps)
    return codec.encoded_session(*amps)


class TestShapes:
    def test_cphase(self):
        maps = "maps" + "".join(f"P{p}" for p in (0, 2, 4, engine.PEX))
        assert shape(build_cphase(), SIX) == [maps, "perm", maps]

    def test_cnot(self):
        assert shape(build_cnot_coin_to_logical(), SIX) == ["mapsP4", "perm", "mapsP4"]

    def test_logical_t(self):
        # the T coin and both inner CPhase brackets fold into the middle maps
        maps = "maps" + "".join(f"P{p}" for p in (0, 2, 4, engine.PEX))
        assert shape(build_logical_t(), SIX) == [maps, "perm", maps, "perm", maps]

    @pytest.mark.parametrize("parity", [0, 1])
    def test_cycle_has_nine_array_segments(self, parity):
        # the closing transform runs before the s4/s5 measurements
        segs = compile_program(build_full_cycle(parity), FIVE)
        arrays = [s for s in segs if isinstance(s, (WalkerMaps, SignedPermutation))]
        assert len(arrays) == 9
        assert len(build_full_cycle(parity).steps) == 94

    def test_bare_shifts_cancel(self):
        assert shape(build_basis_transform(()), FIVE) == []

    def test_walker_outside_layout_is_rejected(self):
        with pytest.raises(ValueError):
            compile_program(build_logical_clifford("H"), engine.Layout(1, False))


# Measuring programs run on FIVE with branch summing and on SIX with a
# seeded policy (one branch); unitary programs run on both layouts.
PROGRAMS = {
    "syndrome-s0s2": build_syndrome_step("s0s2"),
    "syndrome-s1s3": build_syndrome_step("s1s3"),
    "syndrome-s4s5@0": build_syndrome_step("s4s5", start_shift=0),
    "syndrome-s4s5@2": build_syndrome_step("s4s5", start_shift=2),
    "cycle-0": build_full_cycle(0),
    "cycle-1": build_full_cycle(1),
    "transform@0": build_basis_transform(DATA_PARTICLES),
    "transform@2": build_basis_transform(DATA_PARTICLES, frame=2),
    "cnot": build_cnot_coin_to_logical(),
    "cphase": build_cphase(),
    "gauge-zz": build_gauge_zz_measurement(),
    "gauge-xx": build_gauge_xx_measurement(),
    "gauge": build_gauge_measurement(),
    "encode": build_encode(),
    "logical-T": build_logical_t(),
    "logical-H": build_logical_clifford("H"),
    "logical-S": build_logical_clifford("S"),
    "logical-Z": build_logical_clifford("Z"),
    "inverse-transform@2": inverted(build_basis_transform(DATA_PARTICLES, frame=2)),
    "inverse-cnot": inverted(build_cnot_coin_to_logical()),
    "inverse-cphase": inverted(build_cphase()),
}
ON_FIVE = [name for name, prog in PROGRAMS.items() if engine.PEX not in prog.walkers]


class TestFusedEqualsReference:
    @pytest.mark.parametrize("name", ON_FIVE)
    def test_five_all_branches(self, name, rng):
        st = random_state(FIVE, rng)
        prog = PROGRAMS[name]
        fused = run_program(st, prog, all_branches=True)
        assert_same_branches(fused, interpret_program(st, prog, all_branches=True))

    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_six_seeded(self, name, rng):
        st = random_state(SIX, rng)
        prog = PROGRAMS[name]
        fused = run_program(st, prog, rng=np.random.default_rng(5))
        reference = interpret_program(st, prog, rng=np.random.default_rng(5))
        assert_same_branches(fused, reference)

    def test_branches_in_outcome_order(self):
        st = codec.encoded_session(0.8, 0.6j).state
        branches = run_program(st, build_gauge_xx_measurement(), all_branches=True)
        assert [(b.outcomes["gxx:p1"], b.outcomes["gxx:p3"]) for b in branches] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_forced_outcomes_and_missing_policy(self):
        st = codec.encoded_session(0.8, 0.6j).state
        prog = build_gauge_xx_measurement()
        forced = {"gxx:p1": 1, "gxx:p3": 0}
        (branch,) = run_program(st, prog, forced=forced)
        assert branch.outcomes == forced
        with pytest.raises(ValueError):
            run_program(st, prog)
        with pytest.raises(ValueError):
            run_program(st, prog, forced={"gxx:p1": 1})

    def test_input_state_is_not_modified(self, rng):
        st = random_state(SIX, rng)
        before = st.amps.copy()
        run_program(st, build_cphase())
        assert np.array_equal(st.amps, before)

    @pytest.mark.parametrize("family", ["coin", "shift"])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_errors_injected_at_cycle_start(self, family, parity, rng):
        for target in DATA_PARTICLES:
            ses = encoded_random(rng)
            st = errors.inject(ses.state, errors.sample_random_error(rng, family, target))
            prog = build_full_cycle(parity)
            fused = run_program(st, prog, all_branches=True)
            reference = interpret_program(st, prog, all_branches=True)
            assert len(fused) > 1
            assert_same_branches(fused, reference)


def parked_input(layout, rng, keep=DATA_PARTICLES):
    """A random state on the walkers in ``keep``, every other walker parked."""
    small = layout.parking(keep)
    return engine.extend(layout, keep, random_state(small, rng).amps)


def middle_block():
    data_x = CoinSpec.uniform(DATA_PARTICLES, COIN_X)
    return WalkProgram("middle", tuple(programs._walk_iterations(data_x, 8, True)))


@pytest.fixture
def walker_map_dims(monkeypatch):
    """The state size of every walker-map pass."""
    dims = []
    kernel = engine.apply_walker_maps

    def recording(state, maps, scratch):
        dims.append(state.layout.dim)
        return kernel(state, maps, scratch)

    monkeypatch.setattr(engine, "apply_walker_maps", recording)
    return dims


class TestSlice:
    """``run_program`` runs on the walkers a program moves, exactly."""

    @pytest.mark.parametrize("name", ON_FIVE)
    def test_five_parked_inputs_all_branches(self, name, rng):
        st = parked_input(FIVE, rng)
        prog = PROGRAMS[name]
        fused = run_program(st, prog, all_branches=True)
        assert all(b.state.layout == FIVE for b in fused)
        assert_same_branches(fused, interpret_program(st, prog, all_branches=True))

    @pytest.mark.parametrize("name", list(PROGRAMS))
    @pytest.mark.parametrize("keep", [DATA_PARTICLES, DATA_PARTICLES + (engine.PEX,)],
                             ids=["data", "data+PEX"])
    def test_six_parked_inputs_seeded(self, name, keep, rng):
        st = parked_input(SIX, rng, keep)
        prog = PROGRAMS[name]
        fused = run_program(st, prog, rng=np.random.default_rng(5))
        reference = interpret_program(st, prog, rng=np.random.default_rng(5))
        assert all(b.state.layout == SIX for b in fused)
        assert_same_branches(fused, reference)
        # the full-layout reference is exactly 0.0 wherever the slice parks a walker
        kept = engine.support(st, prog.walkers)
        parked = engine.extend(SIX, kept, np.ones(SIX.parking(kept).dim)).amps == 0
        assert all(np.all(b.state.amps[parked] == 0) for b in reference)

    def test_gates_run_on_the_walkers_they_move(self, walker_map_dims):
        ses = codec.encoded_session(0.8, 0.6j, layout=SIX)
        codec.apply_logical_gate(ses, "H")
        assert walker_map_dims == [512]
        walker_map_dims.clear()
        codec.apply_logical_gate(ses, "T")
        assert walker_map_dims and set(walker_map_dims) == {4096}

    def test_unparked_walker_not_acted_on_stays_in_the_slice(self):
        st = codec.encoded_session(0.8, 0.6j, layout=SIX).state
        # PEX at coin 1, vertex 00
        st = engine.apply_pauli_word(st, PauliWord.single(PEX, "c", "X"))
        prog = middle_block()
        assert engine.PEX not in prog.walkers
        assert engine.support(st, prog.walkers) == DATA_PARTICLES + (engine.PEX,)
        assert_same_branches(run_program(st, prog), interpret_program(st, prog))

    def test_tiny_amplitude_widens_the_slice(self):
        st = codec.encoded_session(0.8, 0.6j, layout=SIX).state.copy()   # writable
        flat = 4 << 3 * SIX.slot(P1)  # P1 at coin 1, every other walker at b = 0
        assert st.amps[flat] == 0
        st.amps[flat] = 1e-300
        prog = build_logical_clifford("H")
        assert engine.support(st, prog.walkers) == (0, P1, 2, 4)
        (out,) = run_program(st, prog)
        (ref,) = interpret_program(st, prog)
        coin_one = coin_view(out.state, P1)[:, 1]
        assert np.count_nonzero(coin_one) == 8
        assert np.allclose(coin_one, coin_view(ref.state, P1)[:, 1], rtol=1e-12, atol=0)

    def test_program_on_every_walker_is_not_sliced(self, monkeypatch, rng):
        st = parked_input(FIVE, rng)

        def refuse(*args):
            raise AssertionError("a run on every walker was sliced")

        for name in ("take_slice", "extend"):
            monkeypatch.setattr(engine, name, refuse)
        assert build_full_cycle(0).walkers == set(FIVE.particles)
        branches = run_program(st, build_full_cycle(0), all_branches=True)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)


def off_park_residue(state):
    """Largest amplitude with P1 or P3 anywhere but b = 0."""
    parked = engine.extend(state.layout, DATA_PARTICLES,
                           engine.take_slice(state, DATA_PARTICLES).amps)
    return np.max(np.abs(state.amps - parked.amps))


TINY_P1 = 4 << 3 * SIX.slot(P1)   # P1 at coin 1, every other walker at b = 0


class TestExtendRecord:
    """``extend`` records the walkers it left free on a read-only array;
    ``engine.support`` trusts the record only while the state holds that
    array."""

    @pytest.mark.parametrize("name", ON_FIVE)
    def test_five_runs_equal_runs_on_a_writable_copy(self, name, rng):
        st = parked_input(FIVE, rng)
        assert st.unparked() == DATA_PARTICLES
        prog = PROGRAMS[name]
        assert engine.support(st, prog.walkers) == engine.support(st.copy(), prog.walkers)
        assert_identical_branches(run_program(st, prog, all_branches=True),
                                  run_program(st.copy(), prog, all_branches=True))

    @pytest.mark.parametrize("name", list(PROGRAMS))
    @pytest.mark.parametrize("keep", [DATA_PARTICLES, DATA_PARTICLES + (engine.PEX,)],
                             ids=["data", "data+PEX"])
    def test_six_runs_equal_runs_on_a_writable_copy(self, name, keep, rng):
        st = parked_input(SIX, rng, keep)
        assert st.unparked() == keep
        prog = PROGRAMS[name]
        assert engine.support(st, prog.walkers) == engine.support(st.copy(), prog.walkers)
        assert_identical_branches(run_program(st, prog, rng=np.random.default_rng(5)),
                                  run_program(st.copy(), prog, rng=np.random.default_rng(5)))

    def test_extended_array_is_read_only(self):
        st = codec.encoded_session(0.8, 0.6j, layout=SIX).state
        with pytest.raises(ValueError, match="read-only"):
            st.amps[TINY_P1] = 1e-300
        with pytest.raises(ValueError, match="read-only"):
            st.amps *= 2
        assert st.copy().amps.flags.writeable

    @pytest.mark.parametrize("how", ["swapped", "copied", "writable again"])
    def test_record_is_dropped_with_its_array(self, how):
        st = codec.encoded_session(0.8, 0.6j, layout=SIX).state
        if how == "swapped":
            amps = st.amps.copy()
            amps[TINY_P1] = 1e-300
            amps.flags.writeable = False
            st.amps = amps
        elif how == "copied":
            st = st.copy()
            st.amps[TINY_P1] = 1e-300
        else:
            st.amps.flags.writeable = True
            st.amps[TINY_P1] = 1e-300
        assert st.unparked() == SIX.particles
        prog = build_logical_clifford("H")
        assert engine.support(st, prog.walkers) == (0, P1, 2, 4)

    def test_after_t_the_record_keeps_pex(self):
        ses = codec.encoded_session(0.8, 0.6j, layout=SIX)
        assert ses.state.unparked() == DATA_PARTICLES
        codec.apply_logical_gate(ses, "T")
        assert ses.state.unparked() == DATA_PARTICLES + (PEX,)
        walkers = build_logical_clifford("H").walkers
        assert engine.support(ses.state, walkers) == engine.support(ses.state.copy(), walkers)


class TestAncillasParkExactly:
    """A branch-summed cycle measures and resets P1 and P3, and leaves them
    at b = 0 with exactly 0.0 amplitude anywhere else, in every branch."""

    @pytest.mark.parametrize("family", ["coin", "shift"])
    def test_every_branch_of_both_parities(self, family, rng):
        residues, parities = [], set()
        for target in DATA_PARTICLES:
            for _ in range(3):
                ses = encoded_random(rng)
                codec.inject_error(ses, errors.sample_random_error(rng, family, target))
                for _, first in codec.run_cycle(ses, all_branches=True):
                    residues.append(off_park_residue(first.state))
                    codec.inject_error(first, errors.sample_random_error(rng, family, target))
                    for _, second in codec.run_cycle(first, all_branches=True):
                        residues.append(off_park_residue(second.state))
                        parities.add(tuple(c.parity for c in second.history.cycles))
        assert parities == {(0, 1)}
        assert max(residues) == 0.0


class TestBranchPruning:
    """A seeded or forced run keeps its branch however small; only branch
    summing prunes."""

    @staticmethod
    def rare_state():
        # P1 and P3 coins each read 1 with probability 1e-7
        theta = 2 * np.arcsin(np.sqrt(1e-7))
        ry = np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                       [np.sin(theta / 2), np.cos(theta / 2)]], dtype=complex)
        st = engine.all_at_origin(FIVE)
        for p in (P1, P3):
            st = engine.apply_local_coin(st, p, ry)
        return st

    PROG = WalkProgram("rare", (MeasureCoin(P1, "a"), MeasureCoin(P3, "b")))

    @pytest.mark.parametrize("executor", [run_program, interpret_program])
    def test_forced_run_keeps_its_only_branch(self, executor):
        (branch,) = executor(self.rare_state(), self.PROG, forced={"a": 1, "b": 1})
        assert branch.outcomes == {"a": 1, "b": 1}
        assert branch.probability == pytest.approx(1e-14, rel=1e-6)
        assert branch.state.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("executor", [run_program, interpret_program])
    def test_branch_summing_prunes_it(self, executor):
        branches = executor(self.rare_state(), self.PROG, all_branches=True)
        assert [(b.outcomes["a"], b.outcomes["b"]) for b in branches] == [
            (0, 0), (0, 1), (1, 0)]


class TestCache:
    def test_equal_programs_share_one_entry(self):
        first, second = middle_block(), middle_block()
        a, b = first.steps[0].spec, second.steps[0].spec
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != CoinSpec.uniform(DATA_PARTICLES[:1], COIN_X)
        before = compile_program.cache_info()
        segs = compile_program(first, SIX)
        assert compile_program(second, SIX) is segs
        after = compile_program.cache_info()
        assert after.currsize - before.currsize <= 1
        assert after.misses - before.misses <= 1

    def test_middle_block_check_compiles_once(self):
        verify.check_middle_block()
        before = compile_program.cache_info()
        verify.check_middle_block()
        assert compile_program.cache_info().misses == before.misses

    def test_permutation_tables_shared_by_content(self):
        def perms(program):
            return [s for s in compile_program(program, FIVE)
                    if isinstance(s, SignedPermutation)]

        even, odd = perms(build_full_cycle(0)), perms(build_full_cycle(1))
        # the s0s2 and s1s3 blocks swap places; s4s5's transforms differ by frame
        assert even[0] is odd[1] and even[1] is odd[0]
        assert even[2] is odd[2]

    def test_cache_is_bounded(self):
        lay1 = engine.Layout(1, False)
        limit = compile_program.cache_info().maxsize
        for k in range(limit + 5):
            u = np.diag([1.0, np.exp(1j * (k + 1) / 100)])
            compile_program(WalkProgram("phase", (Coin(CoinSpec.uniform((0,), u)),)), lay1)
        assert compile_program.cache_info().currsize <= limit

    def test_unknown_step_is_rejected(self):
        with pytest.raises(TypeError):
            compile_program(WalkProgram("bad", (MeasureCoin(P1, "x"), "shift")), FIVE)

    def test_hit_does_no_per_step_work(self, monkeypatch):
        """A cached program is looked up by its stored hash: a second run
        neither hashes a step nor iterates the steps."""
        steps = _CountingSteps(build_logical_t().steps)
        program = WalkProgram(build_logical_t().name, steps)
        state = codec.encoded_session(0.8, 0.6j, layout=SIX).state
        programs.run_unitary(state, program)
        hashed = []
        for cls in (Shift, Coin):
            monkeypatch.setattr(cls, "__hash__",
                                lambda self, h=cls.__hash__: hashed.append(self) or h(self))
        steps.iterations = 0
        programs.run_unitary(state, program)
        assert hashed == [] and steps.iterations == 0


class _CountingSteps(tuple):
    """A step tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestProgramsAreValues:
    def test_caller_array_does_not_reach_the_program(self, rng):
        u = engine.COIN_H.copy()
        program = WalkProgram("mutated", (Coin(CoinSpec({(0, "00"): u})), Shift()))
        st = random_state(FIVE, rng)
        (before,) = run_program(st, program)
        u[:] = engine.COIN_X
        (compiled,) = run_program(st, program)
        (reference,) = interpret_program(st, program)
        assert np.max(np.abs(compiled.state.amps - reference.state.amps)) < 1e-12
        assert np.max(np.abs(compiled.state.amps - before.state.amps)) < 1e-12

    def test_entries_are_read_only(self):
        spec = CoinSpec({(0, "00"): engine.COIN_H})
        with pytest.raises(TypeError):
            spec.entries[(1, 0)] = np.diag([1, 2])
        with pytest.raises(ValueError, match="read-only"):
            spec.entries[(0, 0)][0, 0] = 0


# Every cached builder's program, and the inverse of each measurement-free one.
BUILT = {name: prog for name, prog in PROGRAMS.items() if not name.startswith("inverse-")}
BUILT["interaction"] = build_interaction_block()
BUILT.update({f"inverse-{name}": inverted(prog) for name, prog in list(BUILT.items())
              if not prog.has_measurements})


class TestOneCoinStep:
    """Every coin update is a Coin step: a coin on one walker at every
    vertex is ``Coin(CoinSpec.uniform((p,), u))``.  The four step kinds
    compile to three segment kinds."""

    @pytest.mark.parametrize("name", sorted(BUILT))
    def test_builders_use_only_the_step_set(self, name):
        allowed = (Coin, Shift, Neighbor, MeasureCoin)
        assert [s for s in BUILT[name].steps if type(s) not in allowed] == []

    @pytest.mark.parametrize("name", sorted(BUILT))
    def test_builders_compile_to_the_segment_set(self, name):
        layout = SIX if PEX in BUILT[name].walkers else FIVE
        allowed = (WalkerMaps, SignedPermutation, MeasureCoin)
        segs = compile_program(BUILT[name], layout)
        assert [s for s in segs if type(s) not in allowed] == []

    @pytest.mark.parametrize("layout", [FIVE, SIX], ids=["FIVE", "SIX"])
    def test_one_walker_coin_compiles_to_kron(self, layout, rng):
        for p in layout.particles:
            u = errors._haar_2x2(rng)
            program = WalkProgram("one-coin", (Coin(CoinSpec.uniform((p,), u)),))
            (seg,) = compile_program(program, layout)
            assert isinstance(seg, WalkerMaps)
            ((particle, m),) = seg.maps
            assert particle == p
            assert np.array_equal(m, np.kron(u, np.eye(4)))


class TestRealOperands:
    """A walker map with no imaginary part compiles to a contiguous,
    read-only float64 operand; the others stay complex128."""

    @pytest.mark.parametrize("program,layout", [
        (build_full_cycle(0), FIVE), (build_full_cycle(1), FIVE),
        (build_cnot_coin_to_logical(), SIX)], ids=["cycle0-FIVE", "cycle1-FIVE", "cnot-SIX"])
    def test_real_maps_are_float64(self, program, layout):
        maps = operands(program, layout)
        assert maps
        for _, m in maps:
            assert m.dtype == np.float64
            assert m.flags.c_contiguous and not m.flags.writeable

    def test_t_coin_and_z_s_stay_complex(self):
        complex_walkers = [p for p, m in operands(build_logical_t(), SIX)
                           if m.dtype == np.complex128]
        assert complex_walkers == [PEX]
        zs = operands(build_logical_clifford("S"), SIX)
        assert [p for p, _ in zs] == list(DATA_PARTICLES)
        assert all(m.dtype == np.complex128 for _, m in zs)


def h_on(*walkers):
    return Coin(CoinSpec.uniform(walkers, engine.COIN_H))


def x_on(*walkers):   # a coin X at every vertex is a signed permutation
    return Coin(CoinSpec.uniform(walkers, COIN_X))


class TestScheduling:
    """Maps on walkers a measurement run does not touch run before it; the
    source program is unchanged."""

    @pytest.mark.parametrize("parity", [0, 1])
    def test_cycle_runs_every_data_map_before_the_next_measurements(self, parity):
        assert shape(build_full_cycle(parity), FIVE) == [
            "mapsP1P3", "perm", "mapsP1P3", "MeasureCoin", "MeasureCoin",
            "mapsP1P3", "perm", "mapsP1P3P0P2P4", "MeasureCoin", "MeasureCoin",
            "mapsP1P3", "perm", "mapsP1P3P0P2P4", "MeasureCoin", "MeasureCoin"]

    def test_hoisting_makes_no_new_products(self):
        """Moved maps are the source segment's operands, appended in order."""
        segs = compile_program(build_full_cycle(0), FIVE)
        transform = build_basis_transform(DATA_PARTICLES, frame=2).steps
        (closing,) = programs._fuse(list(transform), FIVE)
        moved = segs[-3].maps[2:]
        assert [p for p, _ in moved] == [p for p, _ in closing.maps] == list(DATA_PARTICLES)
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(moved, closing.maps))

    @pytest.mark.parametrize("steps,want", [
        # P1 is measured: only the P0 map moves
        ((h_on(0, 1), MeasureCoin(P1, "a"), h_on(0, 1)),
         ["mapsP0P1P0", "MeasureCoin", "mapsP1"]),
        # every walker the later segment moves is touched: nothing moves
        ((h_on(1, 3), MeasureCoin(P1, "a"), MeasureCoin(P3, "b"), h_on(1, 3)),
         ["mapsP1P3", "MeasureCoin", "MeasureCoin", "mapsP1P3"]),
        # a SignedPermutation before the run, or after it, stops the move
        ((h_on(1), x_on(0), MeasureCoin(P1, "a"), h_on(0)),
         ["mapsP1", "perm", "MeasureCoin", "mapsP0"]),
        ((h_on(0, 1), MeasureCoin(P1, "a"), x_on(0), Neighbor(), h_on(0)),
         ["mapsP0P1", "MeasureCoin", "perm", "mapsP0"]),
        # a segment emptied by the move lets the next one move across both runs
        ((h_on(0, 1), MeasureCoin(P1, "a"), h_on(0), MeasureCoin(P1, "b"), h_on(2)),
         ["mapsP0P1P0P2", "MeasureCoin", "MeasureCoin"]),
    ], ids=["own-walker", "all-touched", "perm-before", "perm-after", "emptied-segment"])
    def test_what_moves(self, steps, want, rng):
        program = WalkProgram("scheduled", steps)
        assert shape(program, FIVE) == want
        st = random_state(FIVE, rng)
        assert_same_branches(run_program(st, program, all_branches=True),
                             interpret_program(st, program, all_branches=True))
        assert_same_branches(run_program(st, program, rng=np.random.default_rng(2)),
                             interpret_program(st, program, rng=np.random.default_rng(2)))


REPARK_SLOTS = [(lay, p) for lay in (FIVE, SIX, verify.CHECK_LAYOUT) for p in lay.particles]
REPARK_IDS = [f"{'CHECK' if lay.parked else 'SIX' if lay.with_external else 'FIVE'}-P{p}"
              for lay, p in REPARK_SLOTS]


@pytest.mark.parametrize("layout,particle", REPARK_SLOTS, ids=REPARK_IDS)
class TestReparkInTheCollapse:
    """``measure_coin`` leaves the bits of a complex-division collapse
    followed, on outcome 1, by a swap of the two coin halves: the coin is
    read and reset to 0."""

    @pytest.mark.parametrize("bit", [0, 1])
    def test_forced(self, layout, particle, bit, rng):
        st = random_state(layout, rng)
        mine = st.copy()
        got = engine.measure_coin(mine, particle, forced=bit)
        assert got[0] == bit and got[1] is mine
        assert mine.amps.tobytes() == reset_reference(st, particle, bit, got[2]).tobytes()

    def test_both_branches(self, layout, particle, rng):
        st = random_state(layout, rng)
        got = engine.measure_coin(st.copy(), particle, both_branches=True)
        assert [bit for bit, _, _ in got] == [0, 1]
        for bit, post, prob in got:
            assert post.amps.tobytes() == reset_reference(st, particle, bit, prob).tobytes()

    def test_certain_outcome_one(self, layout, particle, rng):
        """A coin-0 half of exactly 0.0 makes outcome 1 certain: the half
        moves to coin 0 unscaled, -0.0 included.  So the bits are the swap
        of the input; the complex division, which turns a -0.0 real part
        into +0.0, gives the same values."""
        st = random_state(layout, rng)
        view = coin_view(st, particle)
        view[:, 0] = 0.0
        view[:, 1].real[..., ::3] = -0.0
        got = engine.measure_coin(st.copy(), particle, forced=1)
        assert got[2] == 1.0
        assert got[1].amps.tobytes() == swap_reference(st, particle).tobytes()
        assert np.array_equal(got[1].amps, reset_reference(st, particle, 1, 1.0))
        assert coin_view(got[1], particle)[:, 0].tobytes() == view[:, 1].tobytes()
