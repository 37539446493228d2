"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are stated inline; nothing is deferred to calibration.
"""

import itertools
import time

import numpy as np
import pytest

from walkqec import engine, errors, pauli, verify
from walkqec.codec import (apply_frame_physically, apply_word, bloch_fidelity,
                           encoded_session, inject_error, logical_readout,
                           run_cycle, update_frame)
from walkqec.pauli import PauliWord, pw_product

from conftest import codespace_projector, fidelity

FIVE, SIX = engine.FIVE, engine.SIX
SQ2 = 1 / np.sqrt(2)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_table_exactness():
    """Each listed single-qubit flip yields exactly the printed m bits,
    both through a full walk cycle and through the analytic oracle."""
    t0 = time.time()
    rows = verify.syndrome_rows(0.8, 0.6j)
    elapsed = time.time() - t0
    failures = [r["error"] for r in rows if not r["pass"]]
    _report(1, "Table II exactness",
            len(rows) == 15 and not failures and elapsed < 10.0,
            f"{len(rows)}/15 rows, {elapsed:.1f}s" if not failures else f"failed: {failures}")


def test_criterion_2_gauge_equivalence():
    """(Zx)_P2 and (Zc)_P2: same syndrome, same corrected readout, and the
    absorption identity holds with exact phase."""
    symbolic = pw_product([pauli.GZ0, pauli.S2, PauliWord.single(2, "c", "Z")]) \
        == PauliWord.single(2, "x", "Z")
    syndromes = []
    readouts = []
    for role in ("x", "c"):
        ses = encoded_session(0.6, 0.8j)
        want = logical_readout(ses).bloch
        inject_error(ses, errors.PauliFlip(PauliWord.single(2, role, "Z"), 2))
        _, s = run_cycle(ses, all_branches=True)[0]
        update_frame(s)
        syndromes.append(s.history.cycles[-1].m_str())
        readouts.append(logical_readout(s).bloch)
    same_syndrome = syndromes[0] == syndromes[1]
    dev = max(abs(a - b) for a, b in zip(readouts[0], readouts[1]))
    _report(2, "gauge equivalence of (Zx)_P2 and (Zc)_P2",
            symbolic and same_syndrome and dev < 1e-10,
            f"syndrome {syndromes[0]}, readout deviation {dev:.2e}")


def test_criterion_3_correctability_campaign():
    """>=200 random coin and shift errors per data walker, injected between
    cycles on random encoded Bloch states, all corrected to fidelity
    >= 1 - 1e-8.  Trial k draws from default_rng([97, k]), the same in
    every process."""
    t0 = time.time()
    trials_per_cell = 200
    worst = 1.0
    count = 0
    for family in ("coin", "shift"):
        for target in (0, 2, 4):
            for _ in range(trials_per_cell):
                trial = verify.sweep_trial(97, count, family, target)
                worst = min(worst, trial["fidelity"])
                count += 1
    elapsed = time.time() - t0
    _report(3, "correctability campaign",
            worst >= 1 - 1e-8 and elapsed < 300.0,
            f"{count} trials, min fidelity 1-{1-worst:.1e}, {elapsed:.0f}s")


def test_criterion_4_operator_identities():
    """W intertwining and W^2 = 1 (1e-12, on the extracted 8x8 matrix);
    CNOT, CPhase operator form and the controlled-ZZZ middle block (1e-10
    each, on every amplitude of the walks' output states)."""
    bounds = {"basis-transform W": ("W", 1e-12),
              "coin-to-logical walk = CNOT": ("CNOT", 1e-10),
              "CPhase": ("CPhase", 1e-10),
              "middle interaction block": ("middle", 1e-10)}
    checks = [(name, record, bound)
              for record in verify.identity_checks()
              for prefix, (name, bound) in bounds.items()
              if record["identity"].startswith(prefix)]
    ok = (len(checks) == len(bounds)
          and all(record["deviation"] < bound for _, record, bound in checks))
    _report(4, "operator-identity suite", ok,
            ", ".join(f"{name} {record['deviation']:.1e}" for name, record, _ in checks))


def test_criterion_5_clifford_t():
    """Criteria identities hold symbolically; dynamically every gate word's
    Bloch image matches the 2x2 composition within 1e-8."""
    symbolic = verify.check_criteria()["pass"]
    worst = max(verify.gate_word_deviation(word)
                for word in ("H", "S", "T", "T T", "H T", "S T T"))
    ses = encoded_session(SQ2, SQ2, layout=SIX)
    apply_word(ses, "T")
    t_plus = logical_readout(ses).bloch
    t_dev = float(max(abs(np.array(t_plus) - (np.cos(np.pi / 4), np.sin(np.pi / 4), 0))))
    ok = symbolic and worst < 1e-8 and t_dev < 1e-8
    _report(5, "logical Clifford+T",
            ok, f"symbolic {'ok' if symbolic else 'FAIL'}, dyn dev {worst:.1e}, "
                f"T|+> dev {t_dev:.1e}")


def test_criterion_6_qnd_and_deferred_correction():
    """Undisturbed cycles report m = 000000 with data fidelity 1; frames
    applied at the end equal per-cycle correction for up to 3 flips."""
    ses = encoded_session(0.8, 0.6j)
    start = ses.state.copy()
    ok_qnd = True
    for _ in range(2):
        ses = run_cycle(ses, all_branches=True)[0][1]
        ok_qnd &= ses.history.cycles[-1].m_str() == "000000"
    ses.align()
    fid = fidelity(ses.state, start)
    ok_qnd &= fid > 1 - 1e-10

    flip_sets = [
        [PauliWord.single(0, "x", "X")],
        [PauliWord.single(2, "c", "Z"), PauliWord.single(4, "y", "X")],
        [PauliWord.single(0, "c", "X"), PauliWord.single(2, "y", "X"),
         PauliWord.single(4, "c", "Y")],
    ]
    ok_defer = True
    for flips in flip_sets:
        deferred = encoded_session(0.8, -0.6j)
        percycle = deferred.clone()
        want = logical_readout(deferred.clone()).bloch
        for flip in flips:
            t = flip.particles()[0]
            inject_error(deferred, errors.PauliFlip(flip, t))
            inject_error(percycle, errors.PauliFlip(flip, t))
            deferred = run_cycle(deferred, all_branches=True)[0][1]
            update_frame(deferred)
            percycle = run_cycle(percycle, all_branches=True)[0][1]
            update_frame(percycle)
            apply_frame_physically(percycle)
        a = logical_readout(deferred).bloch
        b = logical_readout(percycle).bloch
        ok_defer &= np.allclose(a, b, atol=1e-12) and bloch_fidelity(want, a) > 1 - 1e-10
    _report(6, "QND + deferred correction", ok_qnd and ok_defer,
            f"QND fidelity 1-{1-fid:.1e}, {len(flip_sets)} flip sequences")


def test_criterion_7_structural_invariants():
    """Every stabilizer sign pattern carves an 8-dim eigenspace; N^2 = 1,
    S^4 = 1, R^2 = Xx Xy at machine precision."""
    ok_rank = True
    for signs in itertools.product((1, -1), repeat=6):
        rank = round(np.trace(codespace_projector(signs)).real)
        ok_rank &= rank == 8

    rng = np.random.default_rng(12)
    amps = rng.normal(size=FIVE.dim) + 1j * rng.normal(size=FIVE.dim)
    amps /= np.linalg.norm(amps)
    st = engine.StateVector(FIVE, amps)
    twice = engine.apply_neighbor(engine.apply_neighbor(st))
    dev_n = float(np.max(np.abs(twice.amps - st.amps)))
    four = st
    for _ in range(4):
        four = engine.apply_shift(four)
    dev_s = float(np.max(np.abs(four.amps - st.amps)))

    r = np.zeros((4, 4))
    for v, nxt in engine.V_SUCC.items():
        r[nxt, v] = 1
    dev_r = float(np.max(np.abs(np.linalg.matrix_power(r, 2)
                                - np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]))))
    ok = ok_rank and dev_n == 0.0 and dev_s < 1e-15 and dev_r == 0.0
    _report(7, "structural invariants", ok,
            f"64/64 sectors rank 8, N^2 dev {dev_n:.1e}, S^4 dev {dev_s:.1e}, R^2 exact")
