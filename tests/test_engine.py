"""State-vector engine: walk operators, measurements, exactness checks."""

import numpy as np
import pytest

from walkqec import engine, errors, oracle, verify
from walkqec.engine import (COIN_H, COIN_HP, COIN_I, COIN_S, COIN_T, COIN_X,
                            COIN_Z, CoinSpec, Layout, all_at_origin,
                            apply_coin, apply_neighbor, apply_particle_unitary,
                            apply_pauli_word, apply_shift, expectation,
                            fidelity, init_state, measure_coin, project_pauli)
from walkqec.pauli import (DATA_PARTICLES, LOGICAL_X, LOGICAL_Z, P1, P3, PEX, ROLES,
                           PauliWord, STABILIZERS, from_triples, q)

from conftest import position_distribution, random_state, walker_map_reference
from reference import collapse_reference, reset_reference, swap_reference

FIVE, SIX = engine.FIVE, engine.SIX


def dense_r():
    r = np.zeros((4, 4))
    for v, nxt in engine.V_SUCC.items():
        r[nxt, v] = 1
    return r


class TestLayoutAndInit:
    def test_dimensions(self):
        assert FIVE.dim == 8 ** 5
        assert SIX.dim == 8 ** 6

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            Layout(0, False)

    def test_init_basis_states(self):
        st = init_state(FIVE, [(p, 0, "00") for p in range(5)])
        assert st.amps[0] == 1.0
        st = init_state(FIVE, [(4, 1, "10"), (2, 1, "10"), (0, 1, "01"),
                               (1, 0, "00"), (3, 0, "00")])
        b4 = 4 + engine.V_OF_LABEL["10"]
        b2 = 4 + engine.V_OF_LABEL["10"]
        b0 = 4 + engine.V_OF_LABEL["01"]
        assert st.amps[(b4 << 12) | (b2 << 6) | b0] == 1.0

    def test_duplicate_and_missing_placements(self):
        with pytest.raises(ValueError):
            init_state(FIVE, [(0, 0, "00"), (0, 1, "00")])
        with pytest.raises(ValueError):
            init_state(FIVE, [(0, 0, "00")])


class TestCoin:
    def test_identity_spec_is_noop(self):
        st = all_at_origin(FIVE)
        out = apply_coin(st, CoinSpec())
        assert np.array_equal(out.amps, st.amps)

    def test_vertex_conditioned_flip(self):
        st = init_state(FIVE, [(1, 0, "10")] + [(p, 0, "00") for p in (0, 2, 3, 4)])
        spec = CoinSpec({(1, "10"): COIN_X})
        out = apply_coin(st, spec)
        expect = init_state(FIVE, [(1, 1, "10")] + [(p, 0, "00") for p in (0, 2, 3, 4)])
        assert fidelity(out, expect) == pytest.approx(1.0, abs=1e-14)

    def test_hadamard_superposition(self):
        st = all_at_origin(FIVE)
        out = apply_coin(st, CoinSpec({(0, "00"): COIN_H}))
        assert out.amps[0] == pytest.approx(1 / np.sqrt(2))
        assert out.amps[4] == pytest.approx(1 / np.sqrt(2))

    def test_non_unitary_entry_rejected(self):
        with pytest.raises(ValueError):
            CoinSpec({(0, "00"): np.array([[1, 0], [0, 2]], dtype=complex)})

    def test_named_constants_unitary(self):
        for u in (COIN_I, COIN_X, COIN_Z, COIN_H, COIN_HP, COIN_S, COIN_T):
            assert engine.is_unitary(u)
        assert np.allclose(COIN_HP, (COIN_X - COIN_Z) / np.sqrt(2))
        assert np.allclose(COIN_S, np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]))
        assert np.allclose(COIN_T, np.diag([np.exp(1j * np.pi / 8), np.exp(-1j * np.pi / 8)]))

    def test_tolerances_are_absolute_on_the_diagonal(self):
        """ATOL is the whole tolerance: numpy's default rtol of 1e-5 would
        let these through."""
        assert not engine.is_unitary(1.000004 * COIN_I)
        near_i = np.diag([1, np.exp(5e-6j)])
        assert CoinSpec({(0, "00"): near_i}).describe() == "P0@00:U"
        assert CoinSpec({(0, "00"): COIN_Z @ near_i}).describe() == "P0@00:U"
        assert CoinSpec({(0, "00"): np.diag([1, np.exp(1e-13j)])}).is_identity()


class TestShift:
    def test_coin_one_advances(self):
        st = init_state(FIVE, [(0, 1, "00")] + [(p, 0, "00") for p in (1, 2, 3, 4)])
        out = apply_shift(st)
        expect = init_state(FIVE, [(0, 1, "10")] + [(p, 0, "00") for p in (1, 2, 3, 4)])
        assert fidelity(out, expect) == pytest.approx(1.0, abs=1e-14)

    def test_coin_zero_stays(self):
        st = init_state(FIVE, [(0, 0, "11")] + [(p, 0, "00") for p in (1, 2, 3, 4)])
        out = apply_shift(st)
        assert fidelity(out, st) == pytest.approx(1.0, abs=1e-14)

    def test_fourth_power_is_identity(self, rng):
        st = random_state(FIVE, rng)
        out = st
        for _ in range(4):
            out = apply_shift(out)
        assert np.max(np.abs(out.amps - st.amps)) < 1e-12

    def test_dense_rotation_relations(self):
        r = dense_r()
        assert np.array_equal(np.linalg.matrix_power(r, 2),
                              np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]))
        assert np.array_equal(r.T, np.linalg.matrix_power(r, 3))


class TestNeighbor:
    def test_matching_pair_flips_sign(self):
        st = init_state(FIVE, [(0, 1, "10"), (1, 1, "10")] +
                        [(p, 0, "00") for p in (2, 3, 4)])
        out = apply_neighbor(st)
        # P0/P1 match (-1), P2/P3 and P3/P4 at origin also match (each -1)
        assert np.vdot(st.amps, out.amps).real == pytest.approx(-1.0)

    def test_coin_mismatch_no_phase(self):
        st = init_state(FIVE, [(0, 1, "10"), (1, 0, "10"), (2, 1, "11"),
                               (3, 0, "01"), (4, 1, "01")])
        # engineered so that no adjacent pair matches in both coin and vertex
        out = apply_neighbor(st)
        assert np.vdot(st.amps, out.amps).real == pytest.approx(1.0)

    def test_external_rule(self):
        st = init_state(SIX, [(PEX, 0, "10"), (4, 0, "00"), (0, 0, "01"),
                              (1, 0, "10"), (2, 0, "11"), (3, 0, "01")])
        out = apply_neighbor(st)
        assert np.vdot(st.amps, out.amps).real == pytest.approx(-1.0)
        # vertex pair that is NOT in the external adjacency: no phase
        st2 = init_state(SIX, [(PEX, 0, "00"), (4, 0, "00"), (0, 0, "01"),
                               (1, 0, "10"), (2, 0, "11"), (3, 0, "01")])
        out2 = apply_neighbor(st2)
        assert np.vdot(st2.amps, out2.amps).real == pytest.approx(1.0)

    @pytest.mark.parametrize("layout", [Layout(2, False), FIVE, SIX])
    def test_parity_matches_digit_formula(self, layout):
        idx = np.arange(layout.dim)
        b = {p: (idx >> (3 * layout.slot(p))) & 7 for p in layout.particles}
        count = sum((b[i] == b[j]).astype(int) for i, j in layout.nested_pairs())
        if layout.with_external:
            for coin in (0, 4):
                count = count + ((b[PEX] == coin + 2) & (b[4] == coin + 0))
                count = count + ((b[PEX] == coin + 3) & (b[4] == coin + 1))
        assert np.array_equal(engine.neighbor_parity(layout), count % 2 == 1)

    def test_involution(self, rng):
        st = random_state(FIVE, rng)
        out = apply_neighbor(apply_neighbor(st))
        assert np.array_equal(out.amps, st.amps)

    def test_norm_preserved_by_walk_ops(self, rng):
        st = random_state(FIVE, rng)
        spec = CoinSpec.uniform(range(5), COIN_H)
        for op in (lambda s: apply_coin(s, spec), apply_shift, apply_neighbor):
            st = op(st)
            assert abs(st.norm() - 1) < 1e-12


class TestParticleUnitary:
    def test_identity(self, rng):
        st = random_state(FIVE, rng)
        out = apply_particle_unitary(st, 2, np.eye(8))
        assert np.allclose(out.amps, st.amps)

    def test_dense_pauli_agrees_with_word_application(self, rng):
        st = random_state(FIVE, rng)
        word = from_triples({2: "XZY"}, phase_pow=2)
        u = oracle.dense_of(word, [q(2, r) for r in ROLES])
        a = apply_particle_unitary(st, 2, u)
        b = apply_pauli_word(st, word)
        assert np.max(np.abs(a.amps - b.amps)) < 1e-12

    def test_r_squared_is_double_bit_flip(self):
        r = dense_r()
        u = np.kron(np.eye(2), np.linalg.matrix_power(r, 2))
        st = init_state(FIVE, [(3, 0, "00")] + [(p, 0, "00") for p in (0, 1, 2, 4)])
        out = apply_particle_unitary(st, 3, u)
        expect = init_state(FIVE, [(3, 0, "11")] + [(p, 0, "00") for p in (0, 1, 2, 4)])
        assert fidelity(out, expect) == pytest.approx(1.0, abs=1e-14)

    def test_non_unitary_rejected(self, rng):
        st = random_state(FIVE, rng)
        with pytest.raises(ValueError):
            apply_particle_unitary(st, 0, np.ones((8, 8)))


class TestPauliWordApplication:
    def test_strided_matches_dense_oracle(self, rng):
        # random single-step words against Kronecker matrices on the data block
        words = [from_triples({4: "ZZI", 2: "ZZI"}),
                 from_triples({2: "XXX", 0: "XXX"}),
                 from_triples({4: "YIZ", 0: "XYI"}, phase_pow=1)]
        for word in words:
            vec = rng.normal(size=512) + 1j * rng.normal(size=512)
            vec /= np.linalg.norm(vec)
            st = engine.extend(FIVE, DATA_PARTICLES, vec)
            out = apply_pauli_word(st, word)
            dense = oracle.dense_of(word) @ vec
            got = engine.restrict(out, DATA_PARTICLES).amps
            assert np.max(np.abs(got - dense)) < 1e-12


UNPARKED = [(FIVE, P1), (FIVE, P3), (SIX, P1), (SIX, P3), (SIX, PEX)]


class TestRestrictExtend:
    """The parked-walker slice: ``restrict`` and its inverse ``extend``."""

    @pytest.mark.parametrize("layout", [FIVE, SIX], ids=["FIVE", "SIX"])
    def test_round_trip_on_the_data_digits(self, layout, rng):
        vec = rng.normal(size=512) + 1j * rng.normal(size=512)
        st = engine.extend(layout, DATA_PARTICLES, vec)
        d = np.arange(512)
        b0, b2, b4 = d & 7, (d >> 3) & 7, (d >> 6) & 7
        want = np.zeros(layout.dim, dtype=complex)
        want[(b0 << 3 * layout.slot(0)) | (b2 << 3 * layout.slot(2))
             | (b4 << 3 * layout.slot(4))] = vec
        assert np.array_equal(st.amps, want)
        back = engine.restrict(st, DATA_PARTICLES)
        assert back.layout == Layout(5, False, parked={P1, P3})
        assert np.array_equal(back.amps, vec)
        assert not np.shares_memory(back.amps, st.amps)

    @pytest.mark.parametrize("layout,keep", [(FIVE, (4, 1)), (SIX, (PEX, 0))],
                             ids=["FIVE", "SIX"])
    def test_keep_order_does_not_matter(self, layout, keep, rng):
        st = random_state(Layout(2, False), rng)
        a = engine.extend(layout, keep, st.amps)
        assert np.array_equal(a.amps, engine.extend(layout, keep[::-1], st.amps).amps)
        assert np.array_equal(engine.restrict(a, keep[::-1]).amps, st.amps)

    @pytest.mark.parametrize("layout,walker", UNPARKED,
                             ids=[f"{'SIX' if lay.with_external else 'FIVE'}-P{p}"
                                  for lay, p in UNPARKED])
    def test_unparked_walker_raises_above_the_tolerance(self, layout, walker, rng):
        vec = rng.normal(size=512) + 1j * rng.normal(size=512)
        st = engine.extend(layout, DATA_PARTICLES, vec / np.linalg.norm(vec))
        for outside in (10 * engine.PARKED_TOL, engine.PARKED_TOL / 10):
            t = np.arcsin(np.sqrt(outside))
            rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            moved = engine.apply_local_coin(st, walker, rot)
            if outside > engine.PARKED_TOL:
                with pytest.raises(ValueError, match="not parked"):
                    engine.restrict(moved, DATA_PARTICLES)
            else:
                engine.restrict(moved, DATA_PARTICLES)


class TestParkedLayout:
    """Parked walkers are held at b = 0 and left out of the packed index."""

    def test_index_covers_the_unparked_walkers(self):
        lay = Layout(5, True, parked={P1, P3})
        assert lay.particles == (0, 2, 4, PEX)
        assert lay.dim == 8 ** 4
        assert [lay.slot(p) for p in lay.particles] == [0, 1, 2, 3]
        with pytest.raises(ValueError, match="parked"):
            lay.slot(P1)
        with pytest.raises(ValueError):
            Layout(5, False, parked={PEX})

    def test_parked_external_walker_is_no_external_walker(self, rng):
        assert Layout(5, True, parked={PEX}) == FIVE
        assert hash(Layout(5, True, parked={PEX})) == hash(FIVE)
        vec = rng.normal(size=512) + 1j * rng.normal(size=512)
        st = engine.extend(SIX, DATA_PARTICLES, vec / np.linalg.norm(vec))
        assert engine.restrict(st, FIVE.particles).layout == FIVE

    @pytest.mark.parametrize("parked", [{P1, 2}, {P3, 4}, {4, PEX}, {0, P1, P3, PEX}],
                             ids=["P1P2", "P3P4", "P4PEX", "P0P1P3PEX"])
    def test_parity_is_the_full_parity_at_the_slice(self, parked):
        # two adjacent parked walkers match at b = 0, a constant -1 factor
        small = Layout(5, True, parked=parked)
        full_sign = np.where(engine.neighbor_parity(SIX), -1.0, 1.0)
        small_sign = np.where(engine.neighbor_parity(small), -1.0, 1.0)
        on_slice = engine.extend(SIX, small.particles, np.ones(small.dim)).amps != 0
        got = engine.extend(SIX, small.particles, small_sign).amps
        assert np.array_equal(got, np.where(on_slice, full_sign, 0))


EVERY_WALKER = [(FIVE, p) for p in FIVE.particles] + [(SIX, p) for p in SIX.particles]


@pytest.mark.parametrize("layout,particle", EVERY_WALKER,
                         ids=[f"{'SIX' if lay.with_external else 'FIVE'}-P{p}"
                              for lay, p in EVERY_WALKER])
class TestEveryWalkerSlot:
    """Coin, measurement and word kernels against 8x8 walker maps, slot by slot.

    The reference is ``walker_map_reference``, a tensordot that does not
    run the engine's walker-map kernel.
    """

    def test_vertex_conditioned_coin(self, layout, particle, rng):
        st = random_state(layout, rng)
        entries, u8 = {}, np.zeros((8, 8), dtype=complex)
        for label in engine.VERTEX_LABELS:
            u, v = errors._haar_2x2(rng), engine.V_OF_LABEL[label]
            entries[(particle, label)] = u
            u8[np.ix_([v, 4 + v], [v, 4 + v])] = u
        spec = CoinSpec(entries)
        want = walker_map_reference(st, particle, u8)
        assert np.max(np.abs(apply_coin(st, spec).amps - want.amps)) < 1e-12

    def test_walker_map_kernel(self, layout, particle, rng):
        st = random_state(layout, rng)
        u8, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        coin = np.kron(errors._haar_2x2(rng), np.eye(4))
        want = walker_map_reference(walker_map_reference(st, particle, u8), particle, coin)
        got, scratch = st.copy(), np.empty_like(st.amps)
        arrays = {id(got.amps), id(scratch)}
        spare = engine.apply_walker_maps(got, [(particle, u8), (particle, coin)], scratch)
        assert {id(got.amps), id(spare)} == arrays
        assert np.max(np.abs(got.amps - want.amps)) < 1e-12

    def test_vertex_conditioned_coin_as_walker_map(self, layout, particle, rng):
        st = random_state(layout, rng)
        spec = CoinSpec({(particle, label): errors._haar_2x2(rng)
                         for label in engine.VERTEX_LABELS})
        (p, u8), = spec.walker_maps().items()
        assert p == particle
        got = walker_map_reference(st, particle, u8)
        assert np.max(np.abs(apply_coin(st, spec).amps - got.amps)) < 1e-12

    def test_local_coin(self, layout, particle, rng):
        st = random_state(layout, rng)
        u = errors._haar_2x2(rng)
        want = walker_map_reference(st, particle, np.kron(u, np.eye(4)))
        got = engine.apply_local_coin(st, particle, u)
        assert np.max(np.abs(got.amps - want.amps)) < 1e-12

    def test_measure_coin_both_branches(self, layout, particle, rng):
        st = random_state(layout, rng)
        # P_bit = (1 + (-1)^bit Zc) / 2 with Zc = kron(Z, I4), then Xc^bit resets the coin
        zc = walker_map_reference(st, particle, np.kron(COIN_Z, np.eye(4)))
        branches = measure_coin(st.copy(), particle, both_branches=True)
        assert [bit for bit, _, _ in branches] == [0, 1]
        for bit, post, prob in branches:
            projected = 0.5 * (st.amps + (-1) ** bit * zc.amps)
            want = np.vdot(projected, projected).real
            reset = walker_map_reference(engine.StateVector(layout, projected / np.sqrt(want)),
                                         particle, np.kron(COIN_X if bit else COIN_I, np.eye(4)))
            assert abs(prob - want) < 1e-12
            assert np.max(np.abs(post.amps - reset.amps)) < 1e-12

    def test_coin_one_probability(self, layout, particle, rng):
        st = random_state(layout, rng)
        half = st.coin_view(particle)[:, 1]
        want = np.vdot(half, half).real
        assert abs(engine.coin_one_probability(st, particle) - want) <= 1e-15 * want

    def test_measure_coin_in_place(self, layout, particle, rng):
        """The last outcome collapses into the input's array, and the first
        of two gets a new one."""
        st = random_state(layout, rng)
        policies = {"rng": {"rng": np.random.default_rng(3)}, "forced": {"forced": 1},
                    "both": {"both_branches": True}}
        for name, policy in policies.items():
            mine = st.copy()
            got = measure_coin(mine, particle, **policy)
            if name != "both":
                got = [got]
            assert len(got) == (2 if name == "both" else 1), name
            assert got[-1][1] is mine, name
            if len(got) == 2:
                assert not np.shares_memory(got[0][1].amps, mine.amps), name
            for bit, post, prob in got:
                assert np.array_equal(post.amps, reset_reference(st, particle, bit, prob)), name

    def test_flip_coin_is_coin_x(self, layout, particle, rng):
        """X on a walker's coin as a Pauli word, the tests' way to move a
        parked walker off coin 0, is coin X bit for bit."""
        st = random_state(layout, rng)
        want = engine.apply_local_coin(st, particle, COIN_X)
        got = apply_pauli_word(st, PauliWord.single(particle, "c", "X"))
        assert got.amps.tobytes() == want.amps.tobytes()

    def test_pauli_word_with_phase(self, layout, particle, rng):
        st = random_state(layout, rng)
        # one Y in the word, so a sign read from the wrong bit flips the result
        triples = {p: "".join(rng.choice(list("XZ"), size=3)) for p in layout.particles}
        triples[particle] = "YZX"
        word = from_triples(triples, phase_pow=3)
        want = st
        for p, triple in triples.items():
            want = walker_map_reference(
                want, p, oracle.dense_of(from_triples({p: triple}), [q(p, r) for r in ROLES]))
        got = apply_pauli_word(st, word)
        assert np.max(np.abs(got.amps - word.phase * want.amps)) < 1e-12

    @staticmethod
    def wrapper_calls(layout, particle, rng) -> dict:
        """Each wrapper over the walker-map kernel as state -> state."""
        entries = {(particle, "10"): errors._haar_2x2(rng)}
        for p in layout.particles:   # one pass per walker, so the scratch swaps often
            entries[(p, "00")] = errors._haar_2x2(rng)
        spec = CoinSpec(entries)
        u = errors._haar_2x2(rng)
        u8, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        return {
            "coin": lambda s: apply_coin(s, spec),
            "empty coin": lambda s: apply_coin(s, CoinSpec()),
            "local coin": lambda s: engine.apply_local_coin(s, particle, u),
            "walker unitary": lambda s: apply_particle_unitary(s, particle, u8),
        }

    def test_wrappers_leave_their_input_alone(self, layout, particle, rng):
        st = random_state(layout, rng)
        amps, before = st.amps, st.amps.tobytes()
        for name, call in self.wrapper_calls(layout, particle, rng).items():
            out = call(st)
            assert st.amps is amps and st.amps.tobytes() == before, name
            assert out is not st and out.amps is not amps, name


EVERY_SLOT = EVERY_WALKER + [(verify.CHECK_LAYOUT, p) for p in verify.CHECK_LAYOUT.particles]
EVERY_SLOT_IDS = [f"{'CHECK' if lay.parked else 'SIX' if lay.with_external else 'FIVE'}-P{p}"
                  for lay, p in EVERY_SLOT]


@pytest.mark.parametrize("layout,particle", EVERY_SLOT, ids=EVERY_SLOT_IDS)
def test_real_operand_pass_equals_the_complex_one(layout, particle, rng):
    """A float64 map runs through the amplitudes' float64 view (above slot
    0) and gives the complex-operand pass's values, bit for bit."""
    st = random_state(layout, rng)
    u8 = rng.normal(size=(8, 8))
    real, cplx = st.copy(), st.copy()
    engine.apply_walker_maps(real, [(particle, u8)], np.empty_like(st.amps))
    engine.apply_walker_maps(cplx, [(particle, u8.astype(complex))], np.empty_like(st.amps))
    assert np.array_equal(real.amps, cplx.amps)
    assert np.max(np.abs(real.amps - walker_map_reference(st, particle, u8).amps)) < 1e-12


@pytest.mark.parametrize("layout,particle", EVERY_SLOT, ids=EVERY_SLOT_IDS)
class TestBarrierKernels:
    """The measure-reset, slot by slot."""

    def test_collapse_equals_complex_division(self, layout, particle, rng):
        st = random_state(layout, rng)
        for bit, post, prob in measure_coin(st.copy(), particle, both_branches=True):
            assert np.array_equal(post.amps, reset_reference(st, particle, bit, prob))

    @pytest.mark.parametrize("bit", [0, 1])
    def test_certain_outcome_keeps_its_half_bit_for_bit(self, layout, particle, bit, rng):
        """An outcome of probability exactly 1.0 keeps its half as it is,
        -0.0 included, in coin 0."""
        st = random_state(layout, rng)
        view = st.coin_view(particle)
        view[:, 1 - bit] = 0.0
        if bit:   # the coin-1 weight is exactly 1.0 for one amplitude of modulus 1
            view[:, 1] = 0.0
            view[0, 1, 0, 0] = -1j
        view[:, bit].real[..., ::3] = -0.0
        kept = view[:, bit].tobytes()
        got, post, prob = measure_coin(st, particle, forced=bit)
        assert (got, prob) == (bit, 1.0)
        assert post is st
        assert post.coin_view(particle)[:, 0].tobytes() == kept
        assert not post.coin_view(particle)[:, 1].view(np.uint64).any()

    def test_flip_of_a_random_state(self, layout, particle, rng):
        """The tests' swap of the coin halves is coin X, bit for bit."""
        st = random_state(layout, rng)
        want = engine.apply_local_coin(st, particle, COIN_X)
        assert swap_reference(st, particle).tobytes() == want.amps.tobytes()

    def test_flip_after_a_collapse_onto_one(self, layout, particle, rng):
        """Outcome 1 leaves the collapse followed by coin X."""
        st = random_state(layout, rng)
        _, post, prob = measure_coin(st.copy(), particle, forced=1)
        collapsed = engine.StateVector(layout, collapse_reference(st, particle, 1, prob))
        want = engine.apply_local_coin(collapsed, particle, COIN_X)
        assert post.amps.tobytes() == want.amps.tobytes()

    def test_flip_keeps_negative_zeros(self, layout, particle, rng):
        """A -0.0 in the kept half keeps its sign in coin 0, scaled or not;
        the complex division would turn a -0.0 real part into +0.0."""
        st = random_state(layout, rng)
        view = st.coin_view(particle)
        view.real[..., ::3] = -0.0
        for _, post, _ in measure_coin(st.copy(), particle, both_branches=True):
            assert np.signbit(post.coin_view(particle)[:, 0].real[..., ::3]).all()


class TestSignedPermutation:
    def test_gather_and_negate(self, rng):
        st = random_state(FIVE, rng)
        gather = rng.permutation(FIVE.dim).astype(np.int32)
        negate = rng.random(FIVE.dim) < 0.5
        sign = np.where(negate, -1, 1).astype(np.int8)
        want = np.where(negate, -st.amps[gather], st.amps[gather])
        got = st.copy()
        engine.apply_signed_permutation(got, gather, sign, np.empty_like(st.amps))
        assert np.array_equal(got.amps, want)

    def test_shift_map_is_the_shift(self, rng):
        st = random_state(FIVE, rng)
        want = apply_shift(st)
        for p in FIVE.particles:
            st = walker_map_reference(st, p, engine.SHIFT_MAP)
        assert np.max(np.abs(st.amps - want.amps)) < 1e-12


class TestMeasurement:
    def test_deterministic_coin(self):
        st = all_at_origin(FIVE)
        bit, post, prob = measure_coin(st.copy(), 0, forced=0)
        assert bit == 0 and prob == pytest.approx(1.0)
        assert fidelity(post, st) == pytest.approx(1.0)

    def test_plus_state_both_branches(self):
        st = apply_coin(all_at_origin(FIVE), CoinSpec({(0, "00"): COIN_H}))
        branches = measure_coin(st, 0, both_branches=True)
        assert len(branches) == 2
        assert all(p == pytest.approx(0.5) for _, _, p in branches)

    def test_forced_impossible_outcome(self):
        st = all_at_origin(FIVE)
        with pytest.raises(ValueError):
            measure_coin(st, 0, forced=1)

    @pytest.mark.parametrize("forced", [-1, 2])
    def test_forced_outcome_outside_zero_and_one(self, forced):
        st = apply_coin(all_at_origin(FIVE), CoinSpec({(0, "00"): COIN_H}))
        before = st.amps.copy()
        with pytest.raises(ValueError, match="must be 0 or 1"):
            measure_coin(st, 0, forced=forced)
        assert np.array_equal(st.amps, before)

    def test_seeded_reproducible(self):
        st = apply_coin(all_at_origin(FIVE), CoinSpec({(0, "00"): COIN_H}))
        bits = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            bit, _, _ = measure_coin(st.copy(), 0, rng=rng)
            bits.append(bit)
        assert bits[0] == bits[1]


class TestExpectationProjection:
    def test_expectation_on_basis(self):
        st = all_at_origin(FIVE)
        assert expectation(st, PauliWord.single(0, "c", "Z")) == pytest.approx(1.0)

    def test_non_hermitian_rejected(self, rng):
        st = random_state(FIVE, rng)
        with pytest.raises(ValueError):
            expectation(st, PauliWord.single(0, "c", "X").times_i())

    def test_projection_idempotent(self, rng):
        st = random_state(FIVE, rng)
        s0 = STABILIZERS[0]
        once, p1 = project_pauli(st, s0, 1)
        twice, p2 = project_pauli(once, s0, 1)
        assert p2 == pytest.approx(1.0, abs=1e-12)
        assert fidelity(once, twice) == pytest.approx(1.0, abs=1e-12)

    def test_projection_zero_probability(self):
        st = all_at_origin(FIVE)
        with pytest.raises(ValueError):
            project_pauli(st, PauliWord.single(0, "c", "Z"), -1)

    def test_sequential_code_projection(self):
        st = all_at_origin(FIVE)
        for s in STABILIZERS:
            st, prob = project_pauli(st, s, 1)
            assert prob > 0
        st, _ = project_pauli(st, LOGICAL_Z, 1)
        for s in STABILIZERS:
            assert expectation(st, s) == pytest.approx(1.0, abs=1e-12)
        assert expectation(st, LOGICAL_Z) == pytest.approx(1.0, abs=1e-12)
        assert expectation(st, LOGICAL_X) == pytest.approx(0.0, abs=1e-12)


class TestFidelity:
    def test_self_and_global_phase(self, rng):
        st = random_state(FIVE, rng)
        assert fidelity(st, st) == pytest.approx(1.0)
        neg = engine.StateVector(FIVE, -st.amps)
        assert fidelity(st, neg) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = all_at_origin(FIVE)
        b = init_state(FIVE, [(0, 1, "00")] + [(p, 0, "00") for p in (1, 2, 3, 4)])
        assert fidelity(a, b) == pytest.approx(0.0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            fidelity(random_state(FIVE, rng), random_state(SIX, rng))


def test_position_distribution():
    st = init_state(FIVE, [(2, 1, "11")] + [(p, 0, "00") for p in (0, 1, 3, 4)])
    dist = position_distribution(st, 2)
    assert dist[engine.V_OF_LABEL["11"]] == pytest.approx(1.0)
