"""Logical-qubit lifecycle: preparation, encoding, cycles, frames, gates.

A Session owns one simulation run: the quantum state, the syndrome
history (reference eigenvalues plus per-cycle flip records), the Pauli
correction frame accumulated from decoding, and the logical axis frame.

Every walk it runs, from encoding to the T gate, is one program from
``programs`` run by ``programs.run_program``; the codec keeps the records.

The axis frame is the Heisenberg-side bookkeeping for logical gates.
Each axis is a real combination of Pauli words whose expectation yields
one Bloch component.  ``LOGICAL_GATES`` defines each logical gate once:
its walk program, the conjugation that program performs on Pauli words,
and the gate's ideal Bloch action as a 3x3 map.  Applying a gate runs
the program and updates the axes in one step, ``AxisFrame.conjugate``:
each new axis is the ideal map's combination of the conjugated old axes.
So the reported Bloch vector follows the ideal 2x2 composition
(``ideal_bloch_map``, kept independent of the table) exactly if and only
if the walk implements the gate on the code algebra, which the
operator-identity suite verifies independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np

from . import engine, errors, pauli, programs
from .engine import Layout, StateVector
from .pauli import (LOGICAL_X, LOGICAL_Y, LOGICAL_Z, PEX, PauliWord,
                    STABILIZERS, commutes, decode_lookup, pw_mul)
from .programs import T_THETA

SIX = engine.SIX
FIVE = engine.FIVE
TERM_TOL = 1e-15   # readout-axis terms with smaller coefficients are dropped

# The rotation axis realized by the T protocol: the CPhase pair encloses
# the coin phase, giving exp(-i pi/8 * Zc_pex x D) with D the transversal-
# Hadamard conjugate of the logical X.  D differs from (criteria g) Zbar
# by the detectable two-coin factor K = -(Yc)_P2 (Yc)_P0.
T_AXIS = PauliWord.from_letters(
    {pauli.q(4, "c"): "Z", pauli.q(4, "x"): "X", pauli.q(4, "y"): "X"})


@dataclass
class CycleRecord:
    raw: tuple          # measured eigenvalues (+1/-1) of s0..s5
    m_bits: tuple       # flips vs the previous cycle (or the reference)
    parity: int

    def m_str(self) -> str:
        return pauli.syndrome_str(self.m_bits)


@dataclass
class SyndromeHistory:
    references: tuple                 # eigenvalues recorded at preparation
    cycles: list = field(default_factory=list)

    def previous_raw(self) -> tuple:
        return self.cycles[-1].raw if self.cycles else self.references

    def append(self, raw: tuple, parity: int) -> CycleRecord:
        prev = self.previous_raw()
        m = tuple(0 if a == b else 1 for a, b in zip(raw, prev))
        rec = CycleRecord(raw, m, parity)
        self.cycles.append(rec)
        return rec

    def current_eigenvalue(self, index: int) -> int:
        return self.previous_raw()[index]


@dataclass
class PauliFrame:
    """Deferred correction: a Pauli word applied virtually at readout."""

    word: PauliWord = field(default_factory=PauliWord.identity)
    log: list = field(default_factory=list)
    uncorrectable: bool = False

    def absorb(self, m_bits: tuple) -> None:
        correction = decode_lookup(m_bits)
        if correction is None:
            self.uncorrectable = True
            self.log.append({"m": pauli.syndrome_str(m_bits), "correction": None})
            return
        self.word = pw_mul(self.word, correction)
        self.log.append({"m": pauli.syndrome_str(m_bits), "correction": correction.render()})

    def sign_for(self, word: PauliWord) -> int:
        return 1 if commutes(self.word, word) else -1


@dataclass(frozen=True)
class LogicalReadout:
    bloch: tuple


class AxisFrame:
    """Three Bloch axes as real combinations of Pauli words."""

    def __init__(self):
        self.axes = {
            "x": [(1.0, LOGICAL_X)],
            "y": [(1.0, LOGICAL_Y)],
            "z": [(1.0, LOGICAL_Z)],
        }

    def conjugate(self, conj: Callable[[PauliWord], list], rows: tuple) -> None:
        """Heisenberg update: axis i becomes sum_j rows[i][j] conj(axis j).

        ``conj`` maps a Hermitian word to its image under the walk unitary,
        a list of (factor, +1-phase word) terms, so the updated axes hold
        +1-phase words; ``rows`` is the gate's ideal Bloch action.  Equal
        words merge and terms of magnitude at most ``TERM_TOL`` are
        dropped.
        """
        old = [self.axes[name] for name in ("x", "y", "z")]
        for name, row in zip(("x", "y", "z"), rows):
            acc: dict = {}
            for r, terms in zip(row, old):
                if not r:
                    continue
                for coef, word in terms:
                    for factor, image in conj(word):
                        acc[image.ops] = acc.get(image.ops, 0.0) + r * coef * factor
            self.axes[name] = [(c, PauliWord(0, ops)) for ops, c in acc.items()
                               if abs(c) > TERM_TOL]

    def readout(self, state: StateVector, frame: PauliFrame) -> LogicalReadout:
        """Frame-signed axis values, evaluated on the data walkers'
        restriction; raises if another walker is not parked."""
        data = engine.restrict(state, pauli.DATA_PARTICLES)
        vals = []
        for name in ("x", "y", "z"):
            total = 0.0
            for coef, word in self.axes[name]:
                if not {qb.particle for qb in word.support()} <= set(pauli.DATA_PARTICLES):
                    raise ValueError(f"readout word {word.render()} acts outside the data walkers")
                total += coef * frame.sign_for(word) * engine.expectation(data, word)
            vals.append(float(total))
        return LogicalReadout(tuple(vals))


class Session:
    """One codec run: state plus all classical records.

    ``displacement`` tracks the data walkers' net shift offset produced by
    the cycle dynamics (each cycle adds two, modulo four).  Readout and
    the protocols that assume home positions align first by applying two
    extra global shifts, the same move the gauge read uses.
    """

    def __init__(self, state: StateVector, history: SyndromeHistory,
                 rng: Optional[np.random.Generator] = None):
        self.state = state
        self.history = history
        self.frame = PauliFrame()
        self.axes = AxisFrame()
        self.rng = rng
        self.injected: list = []
        self.displacement = 0

    @property
    def layout(self) -> Layout:
        return self.state.layout

    def align(self) -> "Session":
        """Return the data walkers to their home positions if displaced."""
        while self.displacement % 4:
            self.state = engine.apply_shift(self.state)
            self.displacement = (self.displacement + 1) % 4
        return self

    def clone(self) -> "Session":
        return self._around(self.state.copy())

    def _around(self, state: StateVector) -> "Session":
        """Copies of this session's classical records around ``state``,
        which is taken as it is, not copied."""
        s = Session(state,
                    SyndromeHistory(self.history.references, list(self.history.cycles)),
                    self.rng)
        s.frame = PauliFrame(self.frame.word, list(self.frame.log), self.frame.uncorrectable)
        s.axes = AxisFrame()
        s.axes.axes = {k: list(v) for k, v in self.axes.axes.items()}
        s.injected = list(self.injected)
        s.displacement = self.displacement
        return s


def prepare_logical_zero(layout: Layout = SIX, *,
                         rng: Optional[np.random.Generator] = None,
                         forced_signs: Optional[dict] = None) -> Session:
    """Project the all-origin walk state onto a stabilizer eigenspace and
    the +1 (or forced) logical-Z eigenspace; record the obtained signs.

    The resulting state is the run's |0>_L by definition.  Signs with
    zero probability (e.g. -1 for s0..s3 from this start) raise.  The
    words act on the data walkers only, so the projections run on their
    512 amplitudes and the result is extended to ``layout`` once:
    ``layout`` is any parking that keeps the data walkers.
    """
    data, refs = _project_zero(rng, dict(forced_signs or {}))
    return Session(engine.extend(layout, pauli.DATA_PARTICLES, data.amps),
                   SyndromeHistory(refs), rng)


def _project_zero(rng, forced_signs: dict) -> tuple:
    """|0>_L with the ancillas parked, and its stabilizer signs."""
    state = engine.all_at_origin(Layout(parked=pauli.ANCILLA_PARTICLES))
    refs = []
    for i, word in enumerate(STABILIZERS):
        sign = forced_signs.get(f"s{i}")
        if sign is None:
            sign = _sample_sign(state, word, rng)
        state, _ = engine.project_pauli(state, word, sign)
        refs.append(sign)
    zbar_sign = forced_signs.get("zbar", 1)
    state, _ = engine.project_pauli(state, LOGICAL_Z, zbar_sign)
    return state, tuple(refs)


@lru_cache(maxsize=1)
def _data_zero() -> tuple:
    """``_project_zero`` without an rng or forced signs, cached: read the
    state, never modify it."""
    return _project_zero(None, {})


def _sample_sign(state: StateVector, word: PauliWord, rng) -> int:
    expect = engine.expectation(state, word)
    p_plus = (1 + expect) / 2
    if rng is None:
        return 1 if p_plus >= 0.5 else -1
    return 1 if rng.random() < p_plus else -1


def encode(session: Session, alpha: complex, beta: complex, *,
           forced_outcome: Optional[int] = None) -> Session:
    """Write (alpha, beta) from the external coin into the logical qubit.

    The input coin, then the encode program (CNOT walk, H on the external
    coin, measuring and re-parking it), then on outcome 1 the logical Z.
    Either outcome (``forced_outcome``, else drawn by the session's rng,
    else 0) yields the same encoded state.
    """
    if not session.layout.with_external:
        raise ValueError("encoding requires the external walker")
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1) > 1e-10:
        raise ValueError("amplitudes must be normalized")
    session.align()
    u = np.array([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]], dtype=complex)
    state = engine.apply_local_coin(session.state, PEX, u)
    fixed = forced_outcome is not None or session.rng is None
    (branch,) = programs.run_program(state, programs.build_encode(), rng=session.rng,
                                     forced={"encode": forced_outcome or 0} if fixed else None)
    if branch.outcomes["encode"]:
        branch.state = programs.run_unitary(branch.state, programs.build_logical_clifford("Z"))
    session.state = branch.state
    return session


def inject_error(session: Session, spec) -> Session:
    """Apply an error spec to the session's state and record it.

    The error acts in the lab frame, whatever the session's
    ``displacement``.  At displacement 2 a lab-frame coin X on a walker
    equals its home-frame (Xc Xx Xy), which has syndrome 000000.
    """
    session.state = errors.inject(session.state, spec)
    session.injected.append(errors.to_json(spec))
    return session


def encoded_session(alpha: complex, beta: complex, *,
                    layout: Layout = FIVE,
                    rng: Optional[np.random.Generator] = None) -> Session:
    """Directly build an encoded Bloch state alpha|0>_L + beta|1>_L.

    Identical (exactly) to prepare + encode with the measurement outcome
    forced to 0, since the coin-to-logical walk equals a CNOT; the
    equivalence is pinned by tests.  Used by sweeps to avoid re-running
    the encoding walk thousands of times.  The superposition is composed
    on the data walkers' layout and extended to ``layout``, any parking
    that keeps the data walkers, once.
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1) > 1e-10:
        raise ValueError("amplitudes must be normalized")
    zero, refs = _data_zero()
    one = engine.apply_pauli_word(zero, LOGICAL_X)
    state = engine.extend(layout, pauli.DATA_PARTICLES, alpha * zero.amps + beta * one.amps)
    return Session(state, SyndromeHistory(refs), rng)


def run_cycle(session: Session, *, forced: Optional[dict] = None,
              all_branches: bool = False):
    """Execute one syndrome cycle and append its record to the history.

    The compile order follows the walkers' current displacement: from
    home, (s0,s2) runs first; displaced by two, (s1,s3) does.  Returns
    the session (seeded/forced policies) or, with ``all_branches``, the
    list of (probability, session) branches.
    """
    parity = 0 if session.displacement % 4 == 0 else 1
    results = []
    for br, target in _branch_sessions(session, programs.build_full_cycle(parity),
                                       forced, all_branches):
        target.displacement = (target.displacement + 2) % 4
        raw = tuple(1 - 2 * br.outcomes[f"s{i}"] for i in range(6))
        target.history.append(raw, parity)
        results.append((br.probability, target))
    if all_branches:
        return results
    return results[0][1]


def _branch_sessions(session: Session, program: programs.WalkProgram,
                     forced: Optional[dict], all_branches: bool) -> list:
    """(branch, session) pairs of ``program`` run on the session's state:
    the session itself under a seeded or forced policy, a copy of its
    records around each branch's state with ``all_branches``."""
    branches = programs.run_program(session.state, program, rng=session.rng,
                                    forced=forced, all_branches=all_branches)
    if all_branches:
        return [(br, session._around(br.state)) for br in branches]
    (br,) = branches
    session.state = br.state
    return [(br, session)]


def update_frame(session: Session) -> PauliFrame:
    """Fold the last cycle's flip pattern into the deferred correction."""
    if not session.history.cycles:
        raise ValueError("no cycle recorded yet")
    session.frame.absorb(session.history.cycles[-1].m_bits)
    return session.frame


def logical_readout(session: Session) -> LogicalReadout:
    """Frame-adjusted Bloch vector of the logical qubit."""
    session.align()
    return session.axes.readout(session.state, session.frame)


def apply_frame_physically(session: Session) -> Session:
    """Apply the accumulated correction as a real operation and clear it.

    The correction flips the stabilizer eigenvalues it anticommutes with,
    so the last recorded raw values are updated to keep subsequent
    relative flip records consistent.
    """
    session.align()  # corrections are home-frame words
    session.state = engine.apply_pauli_word(session.state, session.frame.word)
    session.state.check_norm()
    flips = pauli.syndrome_of(session.frame.word)
    if session.history.cycles:
        last = session.history.cycles[-1]
        last.raw = tuple(r * (-1 if f else 1) for r, f in zip(last.raw, flips))
    else:
        session.history.references = tuple(
            r * (-1 if f else 1) for r, f in zip(session.history.references, flips))
    session.frame = PauliFrame()
    return session


def measure_g(session: Session, *, forced: Optional[dict] = None,
              all_branches: bool = False):
    """The End-Matter gauge read: ZZ walk, XX walk (one program), product with s4.

    Returns (sign, session) or branch list [(prob, sign, session)].  The
    product is repeatable run to run, but it is a read of the two
    neighbor-pair products, not a projection onto g eigenspaces; see the
    module notes in programs.py and the test suite.
    """
    if not session.history.cycles:
        raise ValueError("measure_g needs a completed syndrome cycle for the s4 eigenvalue")
    session.align()
    e4 = session.history.current_eigenvalue(4)
    results = []
    for br, target in _branch_sessions(session, programs.build_gauge_measurement(),
                                       forced, all_branches):
        sign = e4 * math.prod(1 - 2 * bit for bit in br.outcomes.values())  # the 4 reads
        results.append((br.probability, sign, target))
    if all_branches:
        return results
    _, sign, target = results[0]
    return sign, target


def _hermitian(word: PauliWord) -> tuple:
    """(sign, +1-phase word) of a Hermitian Pauli word."""
    if word.phase_pow == 0:
        return 1.0, word
    if word.phase_pow != 2:
        raise AssertionError("axis word lost Hermiticity under conjugation")
    return -1.0, PauliWord(0, word.ops)


def _transversal(gate: str) -> Callable[[PauliWord], list]:
    """Conjugation by ``gate`` on every data coin."""
    return lambda word: [_hermitian(pauli.conjugate_transversal(word, gate))]


_T_COS, _T_SIN = np.cos(2 * T_THETA), np.sin(2 * T_THETA)


def _t_rotation(word: PauliWord) -> list:
    """Conjugation by exp(-i T_THETA T_AXIS).  A word P anticommuting with
    the axis maps to cos(2 T_THETA) P - i sin(2 T_THETA) (T_AXIS P); the
    product is anti-Hermitian, so -i(T_AXIS P) is again Hermitian."""
    sign, plain = _hermitian(word)
    if commutes(word, T_AXIS):
        return [(sign, plain)]
    sigma, image = _hermitian(pw_mul(T_AXIS, word).times_i(-1))
    return [(sign * _T_COS, plain), (_T_SIN * sigma, image)]


# Each logical gate once: its walk program, the conjugation that program
# performs on Pauli words, and its ideal Bloch action (rows of the 3x3
# map on (x, y, z)).  H, S and Z are one transversal coin step (S runs as
# Z*S on the coins); T is the coin phase enclosed by the two CPhase walks,
# exp(-i T_THETA T_AXIS), a rotation by 2 T_THETA = pi/4 about z.
LOGICAL_GATES = {
    "H": (lambda: programs.build_logical_clifford("H"), _transversal("H"),
          ((0, 0, 1), (0, -1, 0), (1, 0, 0))),
    "S": (lambda: programs.build_logical_clifford("S"), _transversal("ZS"),
          ((0, -1, 0), (1, 0, 0), (0, 0, 1))),
    "Z": (lambda: programs.build_logical_clifford("Z"), _transversal("Z"),
          ((-1, 0, 0), (0, -1, 0), (0, 0, 1))),
    "T": (lambda: programs.build_logical_t(), _t_rotation,
          ((_T_COS, -_T_SIN, 0), (_T_SIN, _T_COS, 0), (0, 0, 1))),
}


def apply_logical_gate(session: Session, gate: str) -> Session:
    """Apply one logical gate of ``LOGICAL_GATES`` by its walk program and
    conjugate the axes accordingly.

    Raises ValueError, leaving the session untouched, for an unknown gate
    or when the program acts on a walker the session's layout lacks (T
    needs the external walker).
    """
    if gate not in LOGICAL_GATES:
        raise ValueError(f"unknown logical gate {gate!r}")
    build, conj, rows = LOGICAL_GATES[gate]
    prog = build()
    missing = prog.walkers - set(session.layout.particles)
    if missing:
        raise ValueError(f"logical {gate} acts on walkers {sorted(missing)} "
                         f"absent from the layout")
    session.align()
    session.state = programs.run_unitary(session.state, prog)
    session.axes.conjugate(conj, rows)
    return session


def apply_word(session: Session, word: str) -> Session:
    """Apply a whitespace-separated gate word such as "H T T"."""
    for gate in word.split():
        apply_logical_gate(session, gate)
    return session


def ideal_bloch_map(word: str, bloch: tuple) -> tuple:
    """Exact 2x2 composition of a gate word acting on a Bloch vector."""
    mats = {
        "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
        "S": np.diag([1, 1j]).astype(complex),
        "T": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
        "Z": np.diag([1, -1]).astype(complex),
    }
    x, y, z = bloch
    rho = 0.5 * (np.eye(2) + x * np.array([[0, 1], [1, 0]])
                 + y * np.array([[0, -1j], [1j, 0]]) + z * np.diag([1, -1]))
    for gate in word.split():
        u = mats[gate]
        rho = u @ rho @ u.conj().T
    out = (np.trace(rho @ np.array([[0, 1], [1, 0]])).real,
           np.trace(rho @ np.array([[0, -1j], [1j, 0]])).real,
           np.trace(rho @ np.diag([1, -1])).real)
    return tuple(float(v) for v in out)


def transcript(session: Session) -> dict:
    """JSON-serializable record of the run."""
    return {
        "references": list(session.history.references),
        "cycles": [
            {"raw": list(c.raw), "m": c.m_str(), "parity": c.parity}
            for c in session.history.cycles
        ],
        "injected": session.injected,
        "frame": {
            "word": session.frame.word.render(),
            "uncorrectable": session.frame.uncorrectable,
            "log": session.frame.log,
        },
        "readout": list(logical_readout(session).bloch),
    }


def bloch_fidelity(a: Iterable[float], b: Iterable[float]) -> float:
    """Fidelity of the pure states with Bloch vectors a and b."""
    dot = sum(x * y for x, y in zip(a, b))
    return 0.5 * (1.0 + dot)
