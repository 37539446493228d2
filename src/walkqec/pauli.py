"""Signed Pauli-group algebra for the three-walker nine-qubit code.

Each walker carries three qubits: its coin bit ``c`` and the two position
bits ``x`` and ``y``.  The data walkers P0, P2, P4 therefore host nine
qubits, on which the code is defined by six stabilizer generators, two
gauge-qubit pairs, and one logical qubit.  Everything in this module is
exact: phases are integer powers of i, syndrome and gauge-membership
questions are GF(2) linear algebra, and no floating point is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional

# Walker indices.  P1 and P3 are the syndrome ancillas, PEX the external
# walker used for encoding and the logical T protocol.
P0, P1, P2, P3, P4, PEX = 0, 1, 2, 3, 4, 5
DATA_PARTICLES = (P0, P2, P4)
ANCILLA_PARTICLES = (P1, P3)

ROLES = ("c", "x", "y")

PHASE_STR = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}

# (a, b) -> (product letter, phase as power of i), i.e. a*b = i^k * letter.
_MUL = {
    ("I", "I"): ("I", 0), ("I", "X"): ("X", 0), ("I", "Y"): ("Y", 0), ("I", "Z"): ("Z", 0),
    ("X", "I"): ("X", 0), ("Y", "I"): ("Y", 0), ("Z", "I"): ("Z", 0),
    ("X", "X"): ("I", 0), ("Y", "Y"): ("I", 0), ("Z", "Z"): ("I", 0),
    ("X", "Y"): ("Z", 1), ("Y", "X"): ("Z", 3),
    ("Y", "Z"): ("X", 1), ("Z", "Y"): ("X", 3),
    ("Z", "X"): ("Y", 1), ("X", "Z"): ("Y", 3),
}


class QubitId(NamedTuple):
    """A physical qubit, addressed by walker and role (c, x or y)."""

    particle: int
    role: str


def q(particle: int, role: str) -> QubitId:
    if role not in ROLES:
        raise ValueError(f"unknown role {role!r}")
    return QubitId(particle, role)


def _sort_key(item):
    qubit, _ = item
    return (qubit.particle, ROLES.index(qubit.role))


@dataclass(frozen=True)
class PauliWord:
    """A signed Pauli operator: i^phase_pow times a tensor of letters.

    ``ops`` holds only the non-identity letters, keyed by qubit and kept
    sorted so equal operators compare equal.
    """

    phase_pow: int = 0
    ops: tuple = ()

    @staticmethod
    def from_letters(letters: Mapping[QubitId, str], phase_pow: int = 0) -> "PauliWord":
        items = tuple(sorted(((k, v) for k, v in letters.items() if v != "I"), key=_sort_key))
        for qubit, letter in items:
            if letter not in ("X", "Y", "Z"):
                raise ValueError(f"bad Pauli letter {letter!r}")
            if qubit.role not in ROLES:
                raise ValueError(f"bad role in {qubit}")
        return PauliWord(phase_pow % 4, items)

    @staticmethod
    def identity() -> "PauliWord":
        return PauliWord(0, ())

    @staticmethod
    def single(particle: int, role: str, letter: str, phase_pow: int = 0) -> "PauliWord":
        return PauliWord.from_letters({q(particle, role): letter}, phase_pow)

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_pow

    def support(self) -> tuple:
        return tuple(k for k, _ in self.ops)

    def particles(self) -> tuple:
        return tuple(sorted({k.particle for k, _ in self.ops}))

    def is_hermitian(self) -> bool:
        return self.phase_pow in (0, 2)

    def adjoint(self) -> "PauliWord":
        # Letters are Hermitian; only the phase conjugates.
        return PauliWord((-self.phase_pow) % 4, self.ops)

    def times_i(self, k: int = 1) -> "PauliWord":
        return PauliWord((self.phase_pow + k) % 4, self.ops)

    def render(self) -> str:
        """Canonical text form: phase, then per-walker (c x y) triples.

        Walkers appear in descending order; the three data walkers are
        always shown so fixtures have a stable shape.  Memoized by value,
        so equal words share one string.
        """
        return _render(self.phase_pow, self.ops)

    @staticmethod
    def parse(text: str) -> "PauliWord":
        """Inverse of :meth:`render`, for test fixtures."""
        import re

        tokens = text.split(None, 1)
        phase_pow = {v: k for k, v in PHASE_STR.items()}[tokens[0]]
        letters = {}
        for inner, tag in re.findall(r"\(([^)]*)\)_\{([^}]*)\}", tokens[1] if len(tokens) > 1 else ""):
            particle = PEX if tag == "PEX" else int(tag.lstrip("P"))
            for role, letter in zip(ROLES, inner.split()):
                if letter != "I":
                    letters[q(particle, role)] = letter
        return PauliWord.from_letters(letters, phase_pow)

    def __str__(self) -> str:
        return self.render()


@lru_cache(maxsize=1024)
def _render(phase_pow: int, ops: tuple) -> str:
    letters = dict(ops)
    shown = sorted(set(DATA_PARTICLES) | {k.particle for k in letters}, reverse=True)
    parts = [PHASE_STR[phase_pow]]
    for p in shown:
        triple = " ".join(letters.get(q(p, r), "I") for r in ROLES)
        name = "PEX" if p == PEX else f"P{p}"
        parts.append(f"({triple})_{{{name}}}")
    return " ".join(parts)


def pw_mul(a: PauliWord, b: PauliWord) -> PauliWord:
    """Group product a*b with exact phase."""
    letters_a = dict(a.ops)
    phase = a.phase_pow + b.phase_pow
    out = dict(letters_a)
    for qubit, lb in b.ops:
        la = out.get(qubit, "I")
        prod, k = _MUL[(la, lb)]
        phase += k
        if prod == "I":
            out.pop(qubit, None)
        else:
            out[qubit] = prod
    return PauliWord.from_letters(out, phase)


def pw_product(words: Iterable[PauliWord]) -> PauliWord:
    acc = PauliWord.identity()
    for w in words:
        acc = pw_mul(acc, w)
    return acc


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True iff ab = ba (even number of anticommuting sites)."""
    la, lb = dict(a.ops), dict(b.ops)
    n = 0
    for qubit, x in la.items():
        y = lb.get(qubit)
        if y is not None and y != x:
            n += 1
    return n % 2 == 0


def from_triples(particle_triples: Mapping[int, str], phase_pow: int = 0) -> PauliWord:
    """Build a word from per-walker three-letter strings like 'ZZI'."""
    letters = {}
    for particle, triple in particle_triples.items():
        for role, letter in zip(ROLES, triple):
            if letter != "I":
                letters[q(particle, role)] = letter
    return PauliWord.from_letters(letters, phase_pow)


_word = from_triples


# Stabilizer generators, gauge pairs and logical operators of the code.
S0 = _word({P2: "ZZI", P0: "ZZI"})
S1 = _word({P2: "ZIZ", P0: "ZIZ"})
S2 = _word({P4: "ZZI", P2: "ZZI"})
S3 = _word({P4: "ZIZ", P2: "ZIZ"})
S4 = _word({P2: "XXX", P0: "XXX"})
S5 = _word({P4: "XXX", P2: "XXX"})
STABILIZERS = (S0, S1, S2, S3, S4, S5)

GZ0 = _word({P4: "ZZI"})
GZ1 = _word({P4: "ZIZ"})
GX0 = _word({P4: "XIX", P2: "XIX", P0: "XIX"})
GX1 = _word({P4: "XXI", P2: "XXI", P0: "XXI"})
GAUGES = (GZ0, GX0, GZ1, GX1)

LOGICAL_Z = _word({P4: "ZZZ", P2: "ZZZ", P0: "ZZZ"})
LOGICAL_X = _word({P4: "XXX"})
LOGICAL_Y = pw_mul(LOGICAL_X, LOGICAL_Z).times_i()  # Ybar := i XbarZbar

# Transversal coin-only representatives: Zbar and Xbar dressed by the gauge
# factors (GZ0 GZ1 S0 S1) and (GX0 GX1 S4) respectively.
COIN_Z_REP = _word({P4: "ZII", P2: "ZII", P0: "ZII"})
COIN_X_REP = _word({P4: "XII", P2: "XII", P0: "XII"})

# The gauge factor appearing in the logical Hadamard / phase criteria.
GAUGE_FACTOR_Z = pw_product([GZ0, GZ1, S0, S1])   # (I Z Z) on each data walker
GAUGE_FACTOR_X = pw_product([GX0, GX1, S4])       # (I X X)_P4 (X I I)_P2 (X I I)_P0
CRITERIA_G = pw_mul(GAUGE_FACTOR_Z, GAUGE_FACTOR_X)


DATA_QUBITS = tuple(q(p, r) for p in DATA_PARTICLES for r in ROLES)
# Serialization order for symplectic vectors: (P0.c, P0.x, P0.y, P2.c, ...).
_QUBIT_INDEX = {qb: i for i, qb in enumerate(DATA_QUBITS)}


def _symplectic(word: PauliWord) -> int:
    """18-bit mask: x-part in bits 0..8, z-part in bits 9..17."""
    vec = 0
    for qubit, letter in word.ops:
        i = _QUBIT_INDEX[qubit]
        if letter in ("X", "Y"):
            vec |= 1 << i
        if letter in ("Z", "Y"):
            vec |= 1 << (9 + i)
    return vec


def _require_data_support(word: PauliWord, what: str) -> None:
    bad = [qb for qb in word.support() if qb.particle not in DATA_PARTICLES]
    if bad:
        raise ValueError(f"{what} must be supported on data walkers, found {bad}")


class _Gf2Span:
    """Row-reduced GF(2) span of bitmask vectors, for membership tests."""

    def __init__(self, vectors: Iterable[int]):
        self.pivots: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def add(self, v: int) -> None:
        v = self.reduce(v)
        if v:
            self.pivots[v.bit_length() - 1] = v

    def reduce(self, v: int) -> int:
        while v:
            row = self.pivots.get(v.bit_length() - 1)
            if row is None:
                return v
            v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


_GROUP_SPAN = _Gf2Span(_symplectic(w) for w in STABILIZERS + GAUGES)


def syndrome_of(error: PauliWord) -> tuple:
    """Bits (m0..m5): bit i set iff the error anticommutes with s_i."""
    _require_data_support(error, "syndrome_of argument")
    return tuple(0 if commutes(error, s) else 1 for s in STABILIZERS)


def syndrome_str(bits: tuple) -> str:
    """Render (m0..m5) as the string m5 m4 m3 m2 m1 m0."""
    return "".join(str(b) for b in reversed(bits))


def syndrome_from_str(text: str) -> tuple:
    """Parse an 'm5m4m3m2m1m0' string into (m0..m5)."""
    if len(text) != 6 or set(text) - {"0", "1"}:
        raise ValueError(f"bad syndrome string {text!r}")
    return tuple(int(c) for c in reversed(text))


def equivalent_mod_gauge(a: PauliWord, b: PauliWord) -> bool:
    """True iff a b^-1 lies, up to phase, in the stabilizer-gauge group."""
    _require_data_support(a, "equivalent_mod_gauge argument")
    _require_data_support(b, "equivalent_mod_gauge argument")
    ratio = pw_mul(a, b.adjoint())
    return _GROUP_SPAN.contains(_symplectic(ratio))


# Conjugation tables for the transversal coin gates: letter -> (letter, i-power).
_CONJ = {
    "H": {"X": ("Z", 0), "Z": ("X", 0), "Y": ("Y", 2)},
    "ZS": {"X": ("Y", 2), "Y": ("X", 0), "Z": ("Z", 0)},
    "Z": {"X": ("X", 2), "Y": ("Y", 2), "Z": ("Z", 0)},
}


def conjugate_transversal(word: PauliWord, gate: str) -> PauliWord:
    """u p u^dagger for u = gate applied to the coin of each data walker.

    ``gate`` is "H" (Hadamard), "ZS" (Z followed by the coin phase gate)
    or "Z"; these are the only transversal single-coin Cliffords the code
    uses.
    """
    table = _CONJ.get(gate)
    if table is None:
        raise ValueError(f"unsupported transversal gate {gate!r}")
    letters = {}
    phase = word.phase_pow
    for qubit, letter in word.ops:
        if qubit.role == "c" and qubit.particle in DATA_PARTICLES:
            letter, k = table[letter]
            phase += k
        letters[qubit] = letter
    return PauliWord.from_letters(letters, phase)


# Table of syndrome lookups: phase rows keyed by (m5, m4), bit rows by
# (m3, m2, m1, m0).  Rows not listed are uncorrectable.
_PHASE_ROWS = {
    (0, 0): PauliWord.identity(),
    (0, 1): _word({P0: "ZII"}),
    (1, 0): _word({P4: "ZII"}),
    (1, 1): _word({P2: "ZII"}),
}
_BIT_ROWS = {
    (0, 0, 0, 0): PauliWord.identity(),
    (0, 0, 0, 1): _word({P0: "IXI"}),
    (0, 0, 1, 0): _word({P0: "IIX"}),
    (0, 0, 1, 1): _word({P0: "XII"}),
    (0, 1, 0, 0): _word({P4: "IXI"}),
    (1, 0, 0, 0): _word({P4: "IIX"}),
    (1, 1, 0, 0): _word({P4: "XII"}),
    (0, 1, 0, 1): _word({P2: "IXI"}),
    (1, 0, 1, 0): _word({P2: "IIX"}),
    (1, 1, 1, 1): _word({P2: "XII"}),
}


def decode_lookup(bits: tuple) -> Optional[PauliWord]:
    """Table-lookup correction for a 6-bit syndrome (m0..m5).

    The syndrome factors into a phase part (m5, m4) and a bit part
    (m3..m0); the correction is the product of the two table rows.
    Returns None when the bit pattern is not a listed single-walker flip
    (uncorrectable / multi-walker).
    """
    if len(bits) != 6 or set(bits) - {0, 1}:
        raise ValueError(f"bad syndrome {bits!r}")
    m0, m1, m2, m3, m4, m5 = bits
    phase_row = _PHASE_ROWS[(m5, m4)]
    bit_row = _BIT_ROWS.get((m3, m2, m1, m0))
    if bit_row is None:
        return None
    return pw_mul(phase_row, bit_row)


def correctable_flips() -> list:
    """The fifteen single-qubit flips with listed syndromes.

    Per data walker: X on each of the three qubits, plus Z and Y on the
    coin (Y decodes as the product of one phase row and one bit row).
    """
    flips = []
    for p in DATA_PARTICLES:
        for role in ROLES:
            flips.append(PauliWord.single(p, role, "X"))
        flips.append(PauliWord.single(p, "c", "Z"))
        flips.append(PauliWord.single(p, "c", "Y"))
    return flips


def all_single_qubit_paulis() -> list:
    """All 27 nontrivial single-qubit Paulis on the data walkers."""
    return [
        PauliWord.single(p, role, letter)
        for p in DATA_PARTICLES
        for role in ROLES
        for letter in ("X", "Y", "Z")
    ]
