"""Dense ground truth: Kronecker operators, code-space ranks, extraction."""

import numpy as np
import pytest

from walkqec import engine, oracle, pauli, programs
from walkqec.oracle import (codespace_basis, codespace_projector, dense_of,
                            extract_unitary, operator_distance)
from walkqec.pauli import (DATA_PARTICLES, GZ0, GZ1, LOGICAL_X, LOGICAL_Z, PauliWord,
                           STABILIZERS, from_triples, pw_mul)

FIVE = engine.FIVE


class TestDenseOf:
    def test_identity(self):
        assert np.array_equal(dense_of(PauliWord.identity()), np.eye(512))

    def test_stabilizer_traceless_involution(self):
        m = dense_of(STABILIZERS[0])
        assert abs(np.trace(m)) < 1e-12
        assert np.allclose(m @ m, np.eye(512))

    def test_logical_anticommutator_vanishes(self):
        z, x = dense_of(LOGICAL_Z), dense_of(LOGICAL_X)
        assert np.max(np.abs(z @ x + x @ z)) < 1e-12

    def test_phase_exact(self):
        w = pw_mul(PauliWord.single(0, "c", "X"), PauliWord.single(0, "c", "Z"))
        # X Z = -i Y
        y = dense_of(PauliWord.single(0, "c", "Y"))
        assert np.allclose(dense_of(w), -1j * y)

    def test_unhoused_qubit_rejected(self):
        with pytest.raises(ValueError):
            dense_of(PauliWord.single(1, "c", "X"))

    def test_matches_engine_word_application(self, rng):
        vec = rng.normal(size=512) + 1j * rng.normal(size=512)
        vec /= np.linalg.norm(vec)
        word = from_triples({4: "XZI", 2: "IYZ", 0: "ZIX"}, phase_pow=2)
        st = engine.extend(FIVE, DATA_PARTICLES, vec)
        engine_out = engine.restrict(engine.apply_pauli_word(st, word), DATA_PARTICLES).amps
        assert np.max(np.abs(engine_out - dense_of(word) @ vec)) < 1e-12


class TestCodespace:
    def test_all_plus_signs_dimension_eight(self):
        proj = codespace_projector([1] * 6)
        assert round(np.trace(proj).real) == 8

    def test_random_sign_patterns_dimension_eight(self, rng):
        for _ in range(6):
            signs = [1 if rng.random() < 0.5 else -1 for _ in range(6)]
            proj = codespace_projector(signs)
            assert round(np.trace(proj).real) == 8

    def test_basis_organized_by_sector_labels(self):
        basis = codespace_basis([1] * 6)
        assert len(basis) == 8
        z = dense_of(LOGICAL_Z)
        g0, g1 = dense_of(GZ0), dense_of(GZ1)
        for (zv, av, bv), vec in basis.items():
            assert np.allclose(z @ vec, zv * vec, atol=1e-10)
            assert np.allclose(g0 @ vec, av * vec, atol=1e-10)
            assert np.allclose(g1 @ vec, bv * vec, atol=1e-10)

    def test_logical_z_multiplicity_split(self):
        basis = codespace_basis([1] * 6)
        plus = [v for (zv, _, _), v in basis.items() if zv == 1]
        assert len(plus) == 4


class TestExtraction:
    def test_empty_program_identity(self):
        sts = [engine.all_at_origin(FIVE)]
        u = extract_unitary(programs.WalkProgram("empty", ()), sts, sts)
        assert u.shape == (1, 1) and abs(u[0, 0] - 1) < 1e-14

    def test_rejects_measurements(self):
        sts = [engine.all_at_origin(FIVE)]
        with pytest.raises(ValueError):
            extract_unitary(programs.build_full_cycle(0), sts, sts)

    def test_basis_matrix_matches_one_hot_extraction(self):
        # outputs read by index agree with overlaps against one-hot outputs
        lay = engine.Layout(3, False)
        prog = programs.build_basis_transform((0, 2))
        flats = [0, 5, 12, 100, 300, 511]
        ins = []
        for flat in flats:
            amps = np.zeros(lay.dim, dtype=complex)
            amps[flat] = 1.0
            ins.append(engine.StateVector(lay, amps))
        u = oracle.basis_matrix(prog, lay, flats)
        assert np.array_equal(u, extract_unitary(prog, ins, ins))
        assert np.abs(u).max() > 0.1 and np.abs(u - np.eye(len(flats))).max() > 0.1

    def test_strided_engine_matches_dense_composition(self, rng):
        # one full random walk step applied both ways on the data block
        h = engine.COIN_H
        spec = engine.CoinSpec({(p, label): h for p in (0, 2, 4)
                                for label in engine.VERTEX_LABELS[:2]})
        vec = rng.normal(size=512) + 1j * rng.normal(size=512)
        vec /= np.linalg.norm(vec)
        st = engine.extend(FIVE, DATA_PARTICLES, vec)
        out = engine.apply_shift(engine.apply_coin(st, spec))
        # dense: per-walker 8x8 coin+shift on the data slots
        sig = np.zeros((8, 8))
        for v in range(4):
            sig[v, v] = 1
            sig[4 + engine.V_SUCC[v], 4 + v] = 1
        coin8 = np.zeros((8, 8), dtype=complex)
        for v in range(4):
            block = h if v in (engine.V_OF_LABEL["00"], engine.V_OF_LABEL["10"]) else np.eye(2)
            for a in range(2):
                for b in range(2):
                    coin8[4 * a + v, 4 * b + v] = block[a, b]
        step = sig @ coin8
        dense = np.kron(step, np.kron(step, step)) @ vec
        got = engine.restrict(out, DATA_PARTICLES).amps
        assert np.max(np.abs(got - dense)) < 1e-12

    def test_operator_distance_phase_invariant(self):
        u = np.diag([1, 1j]).astype(complex)
        assert operator_distance(1j * u, u) < 1e-12
