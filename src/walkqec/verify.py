"""The verification checks, each defined once.

The CLI reports these records and the acceptance suite asserts its pinned
bounds on them.  Identity checks return ``{identity, deviation, tolerance,
pass}``; the table checks return one record per commutation invariant or
syndrome row; a sweep trial returns one CSV row; a gate word returns its
worst Bloch deviation over a grid of encoded states.

Engine, program, codec and oracle functions are called through their
modules, so a wrapper or test patch installed on a module attribute sees
every call made from here.
"""

from __future__ import annotations

import numpy as np

from . import codec, engine, errors, oracle, pauli, programs

# ---------------------------------------------------------------- tables

_GENERATOR_NAMES = [f"s{i}" for i in range(6)] + ["gz0", "gx0", "gz1", "gx1", "Zbar", "Xbar"]
_ANTICOMMUTING_PAIRS = ({"gz0", "gx0"}, {"gz1", "gx1"}, {"Zbar", "Xbar"})


def invariant_checks() -> list:
    """Every ordered pair of code generators commutes, except each gauge
    pair and the logical pair."""
    gens = pauli.STABILIZERS + pauli.GAUGES + (pauli.LOGICAL_Z, pauli.LOGICAL_X)
    checks = []
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            want = {_GENERATOR_NAMES[i], _GENERATOR_NAMES[j]} not in _ANTICOMMUTING_PAIRS
            got = pauli.commutes(a, b)
            checks.append({
                "check": f"commutes({_GENERATOR_NAMES[i]},{_GENERATOR_NAMES[j]})",
                "expected": want, "got": got, "pass": want == got,
            })
    return checks


def syndrome_rows(alpha: complex, beta: complex,
                  stabilizers=pauli.STABILIZERS) -> list:
    """One row per correctable single-qubit flip on the encoded state
    alpha|0>_L + beta|1>_L (FIVE): the printed syndrome must equal both the
    analytic one against ``stabilizers`` and the bits one walk cycle reads
    deterministically."""
    session0 = codec.encoded_session(alpha, beta, layout=engine.FIVE)
    rows = []
    for flip in pauli.correctable_flips():
        analytic = tuple(0 if pauli.commutes(flip, s) else 1 for s in stabilizers)
        ses = session0.clone()
        codec.inject_error(ses, errors.PauliFlip(flip, flip.particles()[0]))
        branches = codec.run_cycle(ses, all_branches=True)
        walk_bits = branches[0][1].history.cycles[-1].m_bits if len(branches) == 1 else None
        printed = pauli.syndrome_of(flip)
        rows.append({
            "error": flip.render(),
            "m": pauli.syndrome_str(printed),
            "analytic": pauli.syndrome_str(analytic),
            "walk": pauli.syndrome_str(walk_bits) if walk_bits else None,
            "pass": walk_bits == printed and analytic == printed,
        })
    return rows


# ---------------------------------------------------------------- sweep

def _random_bloch_amplitudes(rng) -> tuple:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    theta = np.arccos(np.clip(v[2], -1, 1))
    phi = np.arctan2(v[1], v[0])
    return np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)


def sweep_trial(seed: int, index: int, family: str, target: int,
                monte_carlo: bool = False) -> dict:
    """One correctability trial keyed ``default_rng([seed, index])``: a
    random encoded Bloch state, one random error of ``family`` on walker
    ``target``, one cycle, frame update; ``fidelity`` is the worst over
    branches (or the sampled branch with ``monte_carlo``)."""
    rng = np.random.default_rng([seed, index])
    alpha, beta = _random_bloch_amplitudes(rng)
    ses = codec.encoded_session(alpha, beta, rng=rng)
    bloch_in = codec.logical_readout(ses).bloch
    spec = errors.sample_random_error(rng, family, target)
    codec.inject_error(ses, spec)
    worst = 1.0
    syndromes = []
    if monte_carlo:
        s = codec.run_cycle(ses)
        codec.update_frame(s)
        syndromes.append(s.history.cycles[-1].m_str())
        worst = codec.bloch_fidelity(bloch_in, codec.logical_readout(s).bloch)
    else:
        for _, s in codec.run_cycle(ses, all_branches=True):
            codec.update_frame(s)
            syndromes.append(s.history.cycles[-1].m_str())
            worst = min(worst, codec.bloch_fidelity(bloch_in, codec.logical_readout(s).bloch))
    return {
        "trial": index,
        "family": family,
        "target": f"P{target}",
        "syndrome": "|".join(sorted(set(syndromes))),
        "fidelity": worst,
    }


# ------------------------------------------------------------ identities

# The walkers the CNOT, CPhase and T protocols involve: the data walkers
# and the external one.  P1 and P3 stay parked at b = 0 throughout, so the
# identity checks and gate words run on this layout's 4,096 amplitudes.
CHECK_LAYOUT = engine.SIX.parking(pauli.DATA_PARTICLES + (pauli.PEX,))


def _identity(name: str, dev: float, tolerance: float) -> dict:
    return {"identity": name, "deviation": dev, "tolerance": tolerance,
            "pass": dev < tolerance}


def check_transform() -> dict:
    lay1 = engine.Layout(1, False)
    w = oracle.program_matrix_on_particle(programs.build_basis_transform((0,)), lay1, 0)
    order = [pauli.q(0, r) for r in pauli.ROLES]
    xxx = oracle.dense_of(pauli.from_triples({0: "XXX"}), order)
    zzz = oracle.dense_of(pauli.from_triples({0: "ZZZ"}), order)
    dev = max(
        float(np.max(np.abs(w @ xxx - zzz @ w))),
        float(np.max(np.abs(w @ zzz - xxx @ w))),
        float(np.max(np.abs(w @ w - np.eye(8)))),
    )
    return _identity("basis-transform W XXX=ZZZ W, W ZZZ=XXX W, W^2=1", dev, 1e-12)


def _cnot_basis() -> list:
    """|0>_L, |1>_L and both with the external coin flipped, on
    ``CHECK_LAYOUT``."""
    zero = codec.prepare_logical_zero(CHECK_LAYOUT).state
    one = engine.apply_pauli_word(zero, pauli.LOGICAL_X)
    flip = pauli.PauliWord.single(pauli.PEX, "c", "X")
    return [zero, one,
            engine.apply_pauli_word(zero, flip), engine.apply_pauli_word(one, flip)]


def check_cnot(basis: list) -> dict:
    u = oracle.extract_unitary(programs.build_cnot_coin_to_logical(), basis, basis)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    dev = float(np.max(np.abs(u - cnot)))
    return _identity("coin-to-logical walk = CNOT on (external coin x logical)", dev, 1e-10)


def check_middle_block() -> dict:
    lay = CHECK_LAYOUT
    flats = [(bx << (3 * lay.slot(pauli.PEX))) | (b4 << (3 * lay.slot(4)))
             for bx in (0, 4) for b4 in range(8)]  # external coin 0/1 at vertex 00
    m = oracle.basis_matrix(programs.build_interaction_block(), lay, flats)
    z3 = np.kron(np.diag([1, -1]), np.kron(np.diag([1, -1]), np.diag([1, -1])))
    target = np.block([[np.eye(8), np.zeros((8, 8))], [np.zeros((8, 8)), z3]]).astype(complex)
    dev = float(np.max(np.abs(m - target)))
    return _identity("middle interaction block = controlled-(Zc Zy Zx) on P4", dev, 1e-10)


# K = -(Yc)_P2 (Yc)_P0, the sector-flipping factor of the CPhase outputs
_K_WORD = pauli.PauliWord.from_letters({pauli.q(2, "c"): "Y", pauli.q(0, "c"): "Y"}, 2)


def _cphase_matrix_deviation(cphase, basis: list) -> float:
    """Distance of the program from diag(1, 1, 1, -1) on the (external
    coin x logical) block, with K-transported outputs."""
    zero, one, zero1, one1 = basis

    def mix(a, b, sign):
        return engine.StateVector(a.layout, (a.amps + sign * b.amps) / np.sqrt(2))

    plus = [mix(zero, zero1, 1), mix(one, one1, 1)]
    minus = [mix(zero, zero1, -1), mix(one, one1, -1)]
    # The minus-branch data walkers acquire the Hadamard-conjugate of the
    # logical X, (Zc Xx Xy) on P4 = K g Zbar: the out basis carries the
    # sector-flipping factor K; the remaining diagonal is the CPhase.
    k_g = pauli.pw_mul(_K_WORD, pauli.CRITERIA_G)
    outs = plus + [engine.apply_pauli_word(m, k_g) for m in minus]
    u = oracle.extract_unitary(cphase, plus + minus, outs)
    return float(np.max(np.abs(u - np.diag([1, 1, 1, -1]))))


def _cphase_operator_deviation(cphase, v: np.ndarray, sign: int) -> float:
    """1 - fidelity of the program against the exact operator form
    |+><+| I + |-><-| (Zc Xx Xy)_P4 on data vector ``v`` in one sector."""
    # PEX is the top digit of CHECK_LAYOUT's packing; b = 4 is coin 1 at vertex 00
    vec = np.zeros(8 * v.size, dtype=complex)
    vec[:v.size] = v / np.sqrt(2)
    vec[4 * v.size:5 * v.size] = sign * v / np.sqrt(2)
    st = engine.StateVector(CHECK_LAYOUT, vec)
    outw = programs.run_unitary(st, cphase)
    if sign < 0:
        st = engine.apply_pauli_word(st, pauli.conjugate_transversal(pauli.LOGICAL_X, "H"))
    return 1 - engine.fidelity(outw, st)


def check_cphase(basis: list) -> dict:
    # Each part runs in its own frame, so the basis mixtures are freed
    # before the operator-form inputs are run.
    cphase = programs.build_cphase()
    rng = np.random.default_rng(3)
    v = rng.normal(size=512) + 1j * rng.normal(size=512)
    v /= np.linalg.norm(v)
    devs = [_cphase_matrix_deviation(cphase, basis)]
    devs += [_cphase_operator_deviation(cphase, v, sign) for sign in (1, -1)]
    return _identity("CPhase = |+><+| I + |-><-| (K g Zbar); diag CPhase on the "
                     "(external coin x logical) block with K-transported outputs",
                     float(max(devs)), 1e-10)


def check_criteria() -> dict:
    """Logical H / phase criteria and the coin-word identities, exactly."""
    conj, mul = pauli.conjugate_transversal, pauli.pw_mul
    lx, lz, g = pauli.LOGICAL_X, pauli.LOGICAL_Z, pauli.CRITERIA_G
    checks = [
        conj(lz, "H") == mul(g, lx),
        conj(pauli.COIN_X_REP, "H") == mul(pauli.GAUGE_FACTOR_Z, lz),
        pauli.equivalent_mod_gauge(conj(pauli.COIN_X_REP, "H"), lz),
        conj(lz, "ZS") == lz,
        pauli.equivalent_mod_gauge(conj(lz, "ZS"), mul(g, lz)),
        conj(pauli.COIN_X_REP, "ZS") == mul(g, mul(lx, lz).times_i()),
        lz == mul(pauli.GAUGE_FACTOR_Z, pauli.COIN_Z_REP),
        lx == mul(pauli.GAUGE_FACTOR_X, pauli.COIN_X_REP),
    ]
    ok = all(checks)
    return {"identity": "logical Hadamard/phase criteria and coin-word identities (symbolic)",
            "deviation": 0.0 if ok else 1.0, "tolerance": 0.0, "pass": ok}


def identity_checks() -> list:
    """The operator-identity suite in report order; the CNOT and CPhase
    checks share one set of basis states."""
    basis = _cnot_basis()
    return [check_transform(), check_cnot(basis), check_middle_block(),
            check_cphase(basis), check_criteria()]


# ---------------------------------------------------------------- gates

BLOCH_GRID = (
    (1.0, 0.0), (0.0, 1.0),
    (1 / np.sqrt(2), 1 / np.sqrt(2)),
    (1 / np.sqrt(2), -1 / np.sqrt(2)),
    (1 / np.sqrt(2), 1j / np.sqrt(2)),
    (0.8, 0.6j),
)


def gate_word_deviation(word: str) -> float:
    """Worst componentwise distance, over the encoded states BLOCH_GRID on
    ``CHECK_LAYOUT``, between the walked Bloch image of ``word`` and the
    exact 2x2 map."""
    worst = 0.0
    for alpha, beta in BLOCH_GRID:
        ses = codec.encoded_session(alpha, beta, layout=CHECK_LAYOUT)
        bloch_in = codec.logical_readout(ses).bloch
        codec.apply_word(ses, word)
        got = codec.logical_readout(ses).bloch
        want = codec.ideal_bloch_map(word, bloch_in)
        worst = max(worst, float(max(abs(g - w) for g, w in zip(got, want))))
    return worst
