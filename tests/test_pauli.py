"""Exact Pauli-group algebra: products, tables, syndromes, conjugation."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from walkqec.pauli import (ANCILLA_PARTICLES, COIN_X_REP, COIN_Z_REP,
                           CRITERIA_G, DATA_PARTICLES, GAUGE_FACTOR_X,
                           GAUGE_FACTOR_Z, GAUGES, GX0, GX1, GZ0, GZ1,
                           LOGICAL_X, LOGICAL_Y, LOGICAL_Z, PauliWord,
                           STABILIZERS, commutes, conjugate_transversal,
                           correctable_flips, decode_lookup, equivalent_mod_gauge,
                           from_triples, pw_mul, pw_product, q, syndrome_of,
                           syndrome_str)

from conftest import all_single_qubit_paulis, syndrome_from_str

S0, S1, S2, S3, S4, S5 = STABILIZERS


def words(particles=DATA_PARTICLES):
    qubits = [q(p, r) for p in particles for r in ("c", "x", "y")]
    return st.builds(
        PauliWord.from_letters,
        st.dictionaries(st.sampled_from(qubits), st.sampled_from("IXYZ"), max_size=5),
        st.integers(min_value=0, max_value=3),
    )


class TestMultiplication:
    def test_single_qubit_relations(self):
        x = PauliWord.single(0, "c", "X")
        z = PauliWord.single(0, "c", "Z")
        y = PauliWord.single(0, "c", "Y")
        assert pw_mul(x, z) == y.times_i(3)   # X Z = -i Y
        assert pw_mul(z, x) == y.times_i(1)   # Z X = +i Y
        assert pw_mul(x, x) == PauliWord.identity()

    def test_table_example_gauge_absorption(self):
        # gZ0 * s2 * (Zc)_P2 = (Zx)_P2, exact phase
        lhs = pw_product([GZ0, S2, PauliWord.single(2, "c", "Z")])
        assert lhs == PauliWord.single(2, "x", "Z")

    def test_stabilizers_are_involutions(self):
        for s in STABILIZERS:
            assert pw_mul(s, s) == PauliWord.identity()

    @settings(max_examples=150, deadline=None)
    @given(words(), words(), words())
    def test_associativity_with_phase(self, a, b, c):
        assert pw_mul(pw_mul(a, b), c) == pw_mul(a, pw_mul(b, c))

    @settings(max_examples=100, deadline=None)
    @given(words())
    def test_hermitian_square_is_identity(self, w):
        if w.is_hermitian():
            assert pw_mul(w, w) == PauliWord.identity()

    @settings(max_examples=100, deadline=None)
    @given(words(), words())
    def test_commutes_matches_product_order(self, a, b):
        assert commutes(a, b) == (pw_mul(a, b) == pw_mul(b, a))


class TestCodeBasis:
    def test_stabilizers_commute_pairwise(self):
        for a, b in itertools.product(STABILIZERS, repeat=2):
            assert commutes(a, b)

    def test_stabilizers_commute_with_gauges_and_logicals(self):
        for s in STABILIZERS:
            for g in GAUGES + (LOGICAL_Z, LOGICAL_X):
                assert commutes(s, g)

    def test_gauge_pairs_anticommute_within_cross_commute(self):
        assert not commutes(GZ0, GX0)
        assert not commutes(GZ1, GX1)
        assert commutes(GZ0, GX1)
        assert commutes(GZ1, GX0)
        assert commutes(GZ0, GZ1)
        assert commutes(GX0, GX1)

    def test_logicals_anticommute_commute_with_gauges(self):
        assert not commutes(LOGICAL_Z, LOGICAL_X)
        for g in GAUGES:
            assert commutes(LOGICAL_Z, g)
            assert commutes(LOGICAL_X, g)

    def test_logical_y_is_hermitian_involution(self):
        assert LOGICAL_Y.is_hermitian()
        assert pw_mul(LOGICAL_Y, LOGICAL_Y) == PauliWord.identity()

    def test_coin_word_identities_exact(self):
        # Zbar = (gZ0 gZ1 s0 s1) (Zc)x3 and Xbar = (gX0 gX1 s4) (Xc)x3, phase +1
        assert pw_mul(GAUGE_FACTOR_Z, COIN_Z_REP) == LOGICAL_Z
        assert pw_mul(GAUGE_FACTOR_X, COIN_X_REP) == LOGICAL_X

    def test_gauge_factor_forms(self):
        assert GAUGE_FACTOR_Z == from_triples({4: "IZZ", 2: "IZZ", 0: "IZZ"})
        assert GAUGE_FACTOR_X == from_triples({4: "IXX", 2: "XII", 0: "XII"})


class TestSyndromes:
    def test_paper_examples(self):
        assert syndrome_str(syndrome_of(PauliWord.single(0, "c", "X"))) == "000011"
        assert syndrome_str(syndrome_of(PauliWord.identity())) == "000000"
        assert syndrome_str(syndrome_of(PauliWord.single(2, "c", "Y"))) == "111111"

    def test_all_listed_rows_round_trip(self):
        rows = {
            "000001": PauliWord.single(0, "x", "X"),
            "000010": PauliWord.single(0, "y", "X"),
            "000011": PauliWord.single(0, "c", "X"),
            "000100": PauliWord.single(4, "x", "X"),
            "001000": PauliWord.single(4, "y", "X"),
            "001100": PauliWord.single(4, "c", "X"),
            "000101": PauliWord.single(2, "x", "X"),
            "001010": PauliWord.single(2, "y", "X"),
            "001111": PauliWord.single(2, "c", "X"),
            "010000": PauliWord.single(0, "c", "Z"),
            "100000": PauliWord.single(4, "c", "Z"),
            "110000": PauliWord.single(2, "c", "Z"),
        }
        for m_str, op in rows.items():
            assert syndrome_str(syndrome_of(op)) == m_str

    def test_rejects_non_data_support(self):
        with pytest.raises(ValueError):
            syndrome_of(PauliWord.single(ANCILLA_PARTICLES[0], "c", "X"))

    def test_syndrome_str_round_trip(self):
        bits = (1, 0, 1, 0, 0, 1)
        assert syndrome_from_str(syndrome_str(bits)) == bits


class TestDecode:
    def test_trivial(self):
        assert decode_lookup((0,) * 6) == PauliWord.identity()

    def test_phase_and_bit_rows_compose(self):
        # m5..m0 = 010100: (Zc)_P0 phase row with (Xx)_P4 bit row
        got = decode_lookup(syndrome_from_str("010100"))
        assert got == pw_mul(PauliWord.single(0, "c", "Z"), PauliWord.single(4, "x", "X"))

    def test_unlisted_bit_pattern_flags(self):
        assert decode_lookup(syndrome_from_str("000110")) is None

    def test_all_ones_is_coin_y_class(self):
        got = decode_lookup((1,) * 6)
        assert got is not None
        assert syndrome_of(got) == (1,) * 6
        assert equivalent_mod_gauge(got, PauliWord.single(2, "c", "Y"))

    def test_every_single_qubit_pauli_is_corrected(self):
        for e in all_single_qubit_paulis():
            correction = decode_lookup(syndrome_of(e))
            assert correction is not None, e.render()
            assert equivalent_mod_gauge(correction, e), e.render()

    def test_fifteen_listed_flips_decode_to_themselves_mod_gauge(self):
        flips = correctable_flips()
        assert len(flips) == 15
        for e in flips:
            assert equivalent_mod_gauge(decode_lookup(syndrome_of(e)), e)


class TestGaugeEquivalence:
    def test_paper_example_zx_equals_zc(self):
        assert equivalent_mod_gauge(PauliWord.single(2, "x", "Z"),
                                    PauliWord.single(2, "c", "Z"))

    def test_logicals_not_equivalent(self):
        assert not equivalent_mod_gauge(LOGICAL_Z, LOGICAL_X)

    def test_transversal_z_word_is_logical_z(self):
        assert equivalent_mod_gauge(COIN_Z_REP, LOGICAL_Z)

    def test_stabilizer_is_trivial(self):
        assert equivalent_mod_gauge(S0, PauliWord.identity())


class TestTransversalConjugation:
    def test_hadamard_criterion_exact(self):
        # conj_H(Zbar) = g Xbar with g = (gZ0 gZ1 s0 s1)(gX0 gX1 s4), exact phase
        assert conjugate_transversal(LOGICAL_Z, "H") == pw_mul(CRITERIA_G, LOGICAL_X)

    def test_hadamard_on_coin_x_rep(self):
        # conj_H((Xc)x3) = (Zc)x3 = (gZ0 gZ1 s0 s1) Zbar
        got = conjugate_transversal(COIN_X_REP, "H")
        assert got == COIN_Z_REP
        assert equivalent_mod_gauge(got, LOGICAL_Z)

    def test_hadamard_xbar_residue(self):
        # conj_H(Xbar) = K g Zbar with K = -(Yc)_P2 (Yc)_P0: the sector-
        # flipping residue; K itself is not a gauge-group element.
        k = PauliWord.from_letters({q(2, "c"): "Y", q(0, "c"): "Y"}, 2)
        assert conjugate_transversal(LOGICAL_X, "H") == pw_product([k, CRITERIA_G, LOGICAL_Z])
        assert not equivalent_mod_gauge(conjugate_transversal(LOGICAL_X, "H"),
                                        pw_mul(CRITERIA_G, LOGICAL_Z))

    def test_phase_criterion_exact_on_rep(self):
        # conj_S((Xc)x3) = g (i Xbar Zbar), exact
        target = pw_mul(CRITERIA_G, pw_mul(LOGICAL_X, LOGICAL_Z).times_i())
        assert conjugate_transversal(COIN_X_REP, "ZS") == target

    def test_phase_fixes_zbar(self):
        got = conjugate_transversal(LOGICAL_Z, "ZS")
        assert got == LOGICAL_Z
        assert equivalent_mod_gauge(got, pw_mul(CRITERIA_G, LOGICAL_Z))

    def test_identity_conjugates_to_identity(self):
        assert conjugate_transversal(PauliWord.identity(), "H") == PauliWord.identity()

    def test_rejects_unknown_gate(self):
        with pytest.raises(ValueError):
            conjugate_transversal(LOGICAL_Z, "T")

    def test_z_row_is_conjugation_by_coin_z_rep(self):
        for word in all_single_qubit_paulis() + [LOGICAL_X, LOGICAL_Y, LOGICAL_Z, *GAUGES]:
            want = pw_mul(pw_mul(COIN_Z_REP, word), COIN_Z_REP)
            assert conjugate_transversal(word, "Z") == want, word.render()


class TestRendering:
    def test_canonical_text(self):
        assert S2.render() == "+1 (Z Z I)_{P4} (Z Z I)_{P2} (I I I)_{P0}"

    def test_equal_words_share_one_string(self):
        fixtures = (list(STABILIZERS) + list(GAUGES) + [LOGICAL_X, LOGICAL_Y, LOGICAL_Z]
                    + correctable_flips() + all_single_qubit_paulis())
        for w in fixtures:
            again = PauliWord.from_letters(dict(w.ops), w.phase_pow)
            assert again == w and again is not w
            assert again.render() is w.render()
