"""Error templates: validation, structure, sampling, JSON form."""

import itertools
import json

import numpy as np
import pytest

from walkqec import codec, engine, errors, oracle
from walkqec.errors import (CoinError, PauliFlip, R_XY, ShiftError, inject, realize,
                            sample_random_error, to_json)
from walkqec.pauli import (DATA_PARTICLES, ROLES, PauliWord, decode_lookup,
                           equivalent_mod_gauge, from_triples, q, syndrome_of)

from conftest import fidelity, random_state

FIVE = engine.FIVE

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)


class TestRealize:
    def test_identity_shift_error(self):
        spec = ShiftError(((1, 0, 0), (1, 0, 0)), 0)
        assert np.allclose(realize(spec), np.eye(8))

    def test_pure_advance(self):
        spec = ShiftError(((0, 1, 0), (0, 1, 0)), 0)
        u = realize(spec)
        assert np.allclose(u, np.kron(np.eye(2), R_XY))

    def test_coin_error_block_diagonal(self):
        spec = CoinError((X2, I2, I2, I2), 0)
        u = realize(spec)
        # X on the coin only at vertex v=0
        assert u[4, 0] == 1 and u[0, 4] == 1
        assert u[1, 1] == 1

    def test_coin_flip_then_shift_moves_parked_walker(self):
        # a coin error at the walker's vertex, followed by the scheduled
        # shift, moves a walker that was meant to stay put
        st = engine.all_at_origin(FIVE)
        spec = CoinError((X2, I2, I2, I2), 0)
        moved = engine.apply_shift(inject(st, spec))
        expect = engine.init_state(FIVE, [(0, 1, "10")] +
                                   [(p, 0, "00") for p in (1, 2, 3, 4)])
        assert fidelity(moved, expect) == pytest.approx(1.0, abs=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="vertex"):
            realize(CoinError((np.diag([1, 2]), I2, I2, I2), 0))
        with pytest.raises(ValueError, match="branch"):
            realize(ShiftError(((1, 1, 0), (1, 0, 0)), 0))

    def test_coin_error_keeps_its_own_blocks(self):
        """A write into the caller's array after construction changes
        neither the spec, its JSON nor its injection."""
        b = np.eye(2)
        spec = CoinError((b, I2, I2, X2), 1)
        before = to_json(spec)
        b[0, 0] = 2
        assert to_json(spec) == before
        assert np.array_equal(realize(spec), realize(CoinError((I2, I2, I2, X2), 1)))
        assert all(not blk.flags.writeable for blk in spec.blocks)
        with pytest.raises(ValueError, match="read-only"):
            spec.blocks[0][0, 0] = 2

    def test_block_within_atol_of_identity_is_identity(self):
        """Such a block acts as the exact I, as in every program coin, and
        the spec still records it as given."""
        near_i = np.diag([1, np.exp(1e-13j)])
        spec = CoinError((X2, near_i, I2, I2), 0)
        assert np.array_equal(realize(spec), realize(CoinError((X2, I2, I2, I2), 0)))
        assert np.array_equal(spec.blocks[1], near_i)

    def test_coin_error_compares_and_hashes_by_value(self):
        """Equal targets and block values make equal errors with equal
        hashes, whatever arrays the caller passed; another target or
        another block, even one that acts as I, makes another error."""
        a = CoinError((np.eye(2),) * 4, 0)
        b = CoinError((I2, I2, I2, I2.copy()), 0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != CoinError((I2,) * 4, 2)
        assert a != CoinError((X2, I2, I2, I2), 0)
        assert a != CoinError((np.diag([1, np.exp(1e-13j)]), I2, I2, I2), 0)
        assert a != ShiftError(((1, 0, 0), (1, 0, 0)), 0)

    def test_coin_error_is_checked_once(self, monkeypatch, rng):
        """Building a coin error checks its four blocks; injecting it checks
        only the 8x8 map it applies."""
        checked = []
        is_unitary = engine.is_unitary
        monkeypatch.setattr(engine, "is_unitary",
                            lambda u: checked.append(np.shape(u)) or is_unitary(u))
        spec = sample_random_error(rng, "coin", 2)
        assert checked == [(2, 2)] * 4
        codec.inject_error(codec.encoded_session(0.8, 0.6j), spec)
        assert checked == [(2, 2)] * 4 + [(8, 8)]

    def test_shift_error_keeps_its_own_coefficients(self):
        """A write into the caller's list or array after construction
        changes neither the spec, its JSON nor its map, and the spec hashes."""
        listed, array = [1, 0, 0], np.array([1, 0, 0], dtype=complex)
        spec = ShiftError([listed, array], 0)
        before = to_json(spec)
        listed[0] = array[0] = 2
        assert to_json(spec) == before
        assert np.array_equal(realize(spec), np.eye(8))
        assert all(type(x) is complex for triple in spec.coeffs for x in triple)
        assert hash(spec) == hash(ShiftError(((1, 0, 0), (1, 0, 0)), 0))

    def test_pauli_flip_support_check(self):
        with pytest.raises(ValueError):
            realize(PauliFlip(PauliWord.single(0, "c", "X"), 2))


class TestStructureInvariants:
    def test_coin_error_commutes_with_vertex_projectors(self, rng):
        u = realize(sample_random_error(rng, "coin", 0))
        for v in range(4):
            proj = np.zeros((8, 8))
            proj[v, v] = proj[4 + v, 4 + v] = 1
            assert np.max(np.abs(u @ proj - proj @ u)) < 1e-12

    def test_shift_error_commutes_with_coin_projectors(self, rng):
        u = realize(sample_random_error(rng, "shift", 0))
        for c in range(2):
            proj = np.zeros((8, 8))
            proj[4 * c:4 * c + 4, 4 * c:4 * c + 4] = np.eye(4)
            assert np.max(np.abs(u @ proj - proj @ u)) < 1e-12

    @pytest.mark.parametrize("family", ["coin", "shift"])
    def test_pauli_terms_are_all_correctable(self, family, rng):
        # expand a sampled 8x8 error over the walker's 64-element Pauli
        # basis; every non-negligible term must decode to a gauge-
        # equivalent correction
        target = 2
        u = realize(sample_random_error(rng, family, target))
        for letters in itertools.product("IXYZ", repeat=3):
            word = from_triples({target: "".join(letters)})
            mat = oracle.dense_of(word, [q(target, r) for r in ROLES])
            coeff = np.trace(mat.conj().T @ u) / 8
            if abs(coeff) < 1e-12:
                continue
            if not word.ops:
                continue
            correction = decode_lookup(syndrome_of(word))
            assert correction is not None, word.render()
            assert equivalent_mod_gauge(correction, word), word.render()


class TestSampling:
    def test_families_validate(self, rng):
        for family in ("coin", "shift", "pauli"):
            for target in DATA_PARTICLES:
                spec = sample_random_error(rng, family, target)
                assert engine.is_unitary(realize(spec))

    def test_pauli_family_uniform_support(self):
        rng = np.random.default_rng(5)
        kinds = {sample_random_error(rng, "pauli", 0).word.ops for _ in range(200)}
        assert len(kinds) == 9

    def test_seed_reproducibility(self):
        a = sample_random_error(np.random.default_rng(42), "coin", 0)
        b = sample_random_error(np.random.default_rng(42), "coin", 0)
        assert to_json(a) == to_json(b)

    def test_rejects_bad_family_and_target(self, rng):
        with pytest.raises(ValueError):
            sample_random_error(rng, "thermal", 0)
        with pytest.raises(ValueError):
            sample_random_error(rng, "coin", 1)


class TestSerialization:
    @pytest.mark.parametrize("family", ["coin", "shift", "pauli"])
    def test_round_trip(self, family, rng):
        """The JSON form survives JSON text and keeps every digit of the spec."""
        spec = sample_random_error(rng, family, 4)
        obj = to_json(spec)
        assert json.loads(json.dumps(obj)) == obj
        params = obj["parameters"]
        if family == "coin":
            for got, want in zip(params["blocks"], spec.blocks):
                assert np.array_equal([[complex(*x) for x in row] for row in got], want)
        elif family == "shift":
            assert tuple(tuple(complex(*x) for x in t) for t in params["coeffs"]) == spec.coeffs
        else:
            assert params["word"] == spec.word.render()

    def test_complex_numbers_as_pairs(self, rng):
        obj = to_json(sample_random_error(rng, "shift", 0))
        triple = obj["parameters"]["coeffs"][0]
        assert all(len(c) == 2 for c in triple)


class TestInjection:
    def test_identity_spec_noop(self, rng):
        st = random_state(FIVE, rng)
        out = inject(st, ShiftError(((1, 0, 0), (1, 0, 0)), 0))
        assert np.max(np.abs(out.amps - st.amps)) < 1e-12

    def test_small_coherent_coin_error_is_applied(self):
        """A 5e-6 phase is an error, not an identity to within tolerance."""
        ses = codec.encoded_session(0.8, 0.6j)
        before = ses.state.copy()
        phase = np.diag([1, np.exp(5e-6j)])
        codec.inject_error(ses, CoinError((phase,) * 4, 2))
        want = engine.apply_local_coin(before, 2, phase)
        assert np.array_equal(ses.state.amps, want.amps)
        assert np.max(np.abs(ses.state.amps - before.amps)) > 1e-7

    def test_injection_preserves_norm(self, rng):
        st = random_state(FIVE, rng)
        for family in ("coin", "shift", "pauli"):
            out = inject(st, sample_random_error(rng, family, 2))
            assert abs(out.norm() - 1) < 1e-12
