"""Unitary error families for single walkers, and their injection.

Two templates are supported besides raw Pauli flips: a vertex-conditioned
coin error (an arbitrary 2x2 unitary at each of the four vertices) and a
position-shift error, a coin-conditioned combination a*I + b*R + c*R^T
over the clockwise rotation R, constrained to be unitary branch by
branch.  A "teleport" error that moves one specific vertex to another is
not expressible here; it is non-unitary and rejected by construction.
Each spec checks itself once, when it is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine, oracle
from .engine import LABEL_OF_V, CoinSpec, StateVector, V_SUCC, is_unitary
from .pauli import DATA_PARTICLES, PauliWord, ROLES, q

# Clockwise rotation on the vertex space, v = 2x + y.
R_XY = np.zeros((4, 4), dtype=complex)
for _v in range(4):
    R_XY[V_SUCC[_v], _v] = 1.0


@dataclass(frozen=True)
class CoinError:
    """E at each vertex: blocks[v] acts on the coin when the walker sits at v.

    The blocks are kept as read-only complex copies, so the caller's
    arrays can change after the check without changing the spec."""

    blocks: tuple  # four 2x2 matrices, indexed by v = 2x + y
    target: int

    def __post_init__(self) -> None:
        if len(self.blocks) != 4:
            raise ValueError("coin error needs exactly four vertex blocks")
        blocks = []
        for v, b in enumerate(self.blocks):
            m = np.array(b, dtype=complex)
            if m.shape != (2, 2) or not is_unitary(m):
                raise ValueError(f"coin error block at vertex v={v} is not a 2x2 unitary")
            m.flags.writeable = False
            blocks.append(m)
        object.__setattr__(self, "blocks", tuple(blocks))


@dataclass(frozen=True)
class ShiftError:
    """Coin-conditioned drift: sum_j |j><j|_c x (a_j I + b_j R + c_j R^T)."""

    coeffs: tuple  # ((a0, b0, c0), (a1, b1, c1)) complex
    target: int

    def branch_matrix(self, j: int) -> np.ndarray:
        a, b, c = self.coeffs[j]
        return a * np.eye(4) + b * R_XY + c * R_XY.T

    def __post_init__(self) -> None:
        if len(self.coeffs) != 2 or any(len(t) != 3 for t in self.coeffs):
            raise ValueError("shift error needs coefficient triples for both coin branches")
        for j in range(2):
            if not is_unitary(self.branch_matrix(j)):
                raise ValueError(f"shift error branch j={j} is not unitary")


@dataclass(frozen=True)
class PauliFlip:
    word: PauliWord
    target: int

    def __post_init__(self) -> None:
        particles = {qb.particle for qb in self.word.support()}
        if particles - {self.target}:
            raise ValueError("pauli flip must be supported on its target walker")


ErrorSpec = CoinError | ShiftError | PauliFlip


def realize(spec: ErrorSpec) -> np.ndarray:
    """Dense 8x8 unitary of an error spec.

    A coin error's map is its ``CoinSpec``'s walker map, so a block
    within ``ATOL`` of the identity is the exact identity, as in every
    program coin."""
    if isinstance(spec, CoinError):
        coin = CoinSpec({(spec.target, LABEL_OF_V[v]): b for v, b in enumerate(spec.blocks)})
        return coin.walker_maps().get(spec.target, np.eye(8, dtype=complex))
    if isinstance(spec, ShiftError):
        m = np.zeros((8, 8), dtype=complex)
        for j in range(2):
            m[4 * j:4 * j + 4, 4 * j:4 * j + 4] = spec.branch_matrix(j)
        return m
    if isinstance(spec, PauliFlip):
        return oracle.dense_of(spec.word, [q(spec.target, r) for r in ROLES])
    raise TypeError(f"unknown error spec {spec!r}")


def inject(state: StateVector, spec: ErrorSpec) -> StateVector:
    """Apply the realized error to the spec's target walker.

    The 8x8 map acts in the lab frame, on the walker's (coin, vertex)
    factor as it stands, whatever shift offset the walkers carry.
    """
    return engine.apply_particle_unitary(state, spec.target, realize(spec))


def _haar_2x2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    qm, r = np.linalg.qr(z)
    return qm * (np.diag(r) / np.abs(np.diag(r)))


def _random_shift_triple(rng: np.random.Generator) -> tuple:
    """Random (a, b, c) with a I + b R + c R^T unitary.

    In R's eigenbasis the operator is diagonal with eigenvalues
    u(l) = a + b l + c l* at l in {1, i, -1, -i}; the three coefficients
    leave one constraint, u(1) + u(-1) = u(i) + u(-i).  Draw the first
    two phases freely and split their sum into the remaining two.
    """
    u1 = np.exp(2j * np.pi * rng.random())
    um1 = np.exp(2j * np.pi * rng.random())
    s = u1 + um1
    mu = np.angle(s) if abs(s) > 0 else 0.0
    delta = np.arccos(np.clip(abs(s) / 2, -1, 1))
    if rng.random() < 0.5:
        delta = -delta
    ui = np.exp(1j * (mu + delta))
    umi = np.exp(1j * (mu - delta))
    a = s / 2
    bc_sum = u1 - a
    bc_diff = (ui - a) / 1j
    b = (bc_sum + bc_diff) / 2
    c = (bc_sum - bc_diff) / 2
    return (complex(a), complex(b), complex(c))


def sample_random_error(rng: np.random.Generator, family: str, target: int) -> ErrorSpec:
    """Draw a random spec from one of the three families."""
    if target not in DATA_PARTICLES:
        raise ValueError(f"error target must be a data walker, got {target}")
    if family == "coin":
        spec = CoinError(tuple(_haar_2x2(rng) for _ in range(4)), target)
    elif family == "shift":
        spec = ShiftError((_random_shift_triple(rng), _random_shift_triple(rng)), target)
    elif family == "pauli":
        role = ROLES[rng.integers(3)]
        letter = "XYZ"[rng.integers(3)]
        spec = PauliFlip(PauliWord.single(target, role, letter), target)
    else:
        raise ValueError(f"unknown error family {family!r}")
    return spec


def _c2j(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _j2c(v: Sequence[float]) -> complex:
    return complex(v[0], v[1])


def to_json(spec: ErrorSpec) -> dict:
    if isinstance(spec, CoinError):
        params = {"blocks": [[[_c2j(x) for x in row] for row in np.asarray(b, dtype=complex)]
                             for b in spec.blocks]}
        family = "coin"
    elif isinstance(spec, ShiftError):
        params = {"coeffs": [[_c2j(x) for x in triple] for triple in spec.coeffs]}
        family = "shift"
    elif isinstance(spec, PauliFlip):
        params = {"word": spec.word.render()}
        family = "pauli"
    else:
        raise TypeError(f"unknown error spec {spec!r}")
    return {"family": family, "target": spec.target, "parameters": params}


def from_json(obj: dict) -> ErrorSpec:
    family = obj["family"]
    target = int(obj["target"])
    params = obj["parameters"]
    if family == "coin":
        blocks = tuple(np.array([[_j2c(x) for x in row] for row in b]) for b in params["blocks"])
        spec: ErrorSpec = CoinError(blocks, target)
    elif family == "shift":
        coeffs = tuple(tuple(_j2c(x) for x in triple) for triple in params["coeffs"])
        spec = ShiftError(coeffs, target)
    elif family == "pauli":
        spec = PauliFlip(PauliWord.parse(params["word"]), target)
    else:
        raise ValueError(f"unknown error family {family!r}")
    return spec


def dumps(spec: ErrorSpec) -> str:
    return json.dumps(to_json(spec), sort_keys=True)


def loads(text: str) -> ErrorSpec:
    return from_json(json.loads(text))
