"""Brute-force ground truth: dense operators and program-unitary extraction.

Everything here trades speed for transparency.  Dense matrices are built
by Kronecker products in a documented qubit order and never exceed
dimension 4096; the strided engine is checked against them, not the other
way around.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .engine import Layout, StateVector
from .pauli import GZ0, GZ1, LOGICAL_Z, PauliWord, STABILIZERS, q
from .programs import WalkProgram, run_unitary

_P1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Dense qubit order for the 512-dim data space, most significant first.
# This makes the dense index coincide with the engine's packed data index
# d = b(P0) + 8 b(P2) + 64 b(P4).
DATA_QUBIT_ORDER = tuple(q(p, r) for p in (4, 2, 0) for r in ("c", "x", "y"))


def dense_of(word: PauliWord, qubit_order: Sequence = DATA_QUBIT_ORDER) -> np.ndarray:
    """Kronecker-product matrix of a signed Pauli word, exact phase."""
    order = tuple(qubit_order)
    unhoused = [qb for qb in word.support() if qb not in order]
    if unhoused:
        raise ValueError(f"word acts on qubits outside the ordering: {unhoused}")
    letters = dict(word.ops)
    m = np.array([[word.phase]], dtype=complex)
    for qb in order:
        m = np.kron(m, _P1Q[letters.get(qb, "I")])
    return m


def codespace_projector(signs: Sequence[int]) -> np.ndarray:
    """Product of (1 + f_i s_i)/2 over the six stabilizers, 512x512."""
    if len(signs) != 6 or set(signs) - {1, -1}:
        raise ValueError("signs must be six values in {+1,-1}")
    proj = np.eye(512, dtype=complex)
    for f, s in zip(signs, STABILIZERS):
        proj = proj @ (np.eye(512) + f * dense_of(s)) / 2
    return proj


def codespace_basis(signs: Sequence[int]) -> dict:
    """Orthonormal basis of one stabilizer eigenspace, organized by
    (logical Z, gauge Z0, gauge Z1) eigenvalues.

    The simultaneous eigenspace always has dimension 8; each of the eight
    (z, a, b) sign patterns contributes exactly one basis vector.
    """
    proj = codespace_projector(signs)
    rank = int(round(np.trace(proj).real))
    if rank != 8:
        raise ValueError(f"stabilizer eigenspace has dimension {rank}, expected 8")
    labels = [dense_of(LOGICAL_Z), dense_of(GZ0), dense_of(GZ1)]
    out = {}
    for z in (1, -1):
        for a in (1, -1):
            for b in (1, -1):
                sub = proj.copy()
                for f, mat in zip((z, a, b), labels):
                    sub = sub @ (np.eye(512) + f * mat) / 2
                # rank-1: take the dominant column and normalize
                u, s, _ = np.linalg.svd(sub)
                if abs(s[0] - 1.0) > 1e-9 or (len(s) > 1 and s[1] > 1e-9):
                    raise ValueError(f"sector ({z},{a},{b}) is not one-dimensional")
                out[(z, a, b)] = u[:, 0]
    return out


def extract_unitary(program: WalkProgram, inputs: Sequence[StateVector],
                    outputs: Sequence[StateVector]) -> np.ndarray:
    """Matrix <out_i | U_program | in_j> for a measurement-free program.

    Each overlap sums over the output's nonzero amplitudes only, in index
    order.  The sum then does not depend on how many zeros pad the state:
    a layout that parks walkers at b = 0 and the full layout gather the
    same terms in the same order, so they give bit-identical matrices
    whatever way the BLAS kernel splits a long dot product."""
    if program.has_measurements:
        raise ValueError(f"extract_unitary needs a measurement-free program, got {program.name!r}")
    supports = [np.flatnonzero(o.amps) for o in outputs]
    cols = []
    for s in inputs:
        final = run_unitary(s, program)
        cols.append([complex(np.vdot(o.amps[nz], final.amps[nz]))
                     for o, nz in zip(outputs, supports)])
    return np.array(cols, dtype=complex).T


def basis_matrix(program: WalkProgram, layout: Layout, flats: Sequence[int]) -> np.ndarray:
    """Matrix <e_i | U_program | e_j> over the basis states at flat indices ``flats``.

    Each one-hot input is as large as ``layout``: pass the layout that
    parks every walker the program leaves at b = 0.  The inputs are built,
    run and read by index in turn, so at most one of them is alive at a
    time: a one-hot array is almost all untouched pages, and how much of
    it is resident depends on the host's huge-page policy, not on the
    program."""
    flats = list(flats)
    cols = []
    for flat in flats:
        amps = np.zeros(layout.dim, dtype=complex)
        amps[flat] = 1.0
        cols.append(run_unitary(StateVector(layout, amps), program).amps[flats])
    return np.array(cols, dtype=complex).T


def program_matrix_on_particle(program: WalkProgram, layout: Layout,
                               particle: int) -> np.ndarray:
    """8x8 matrix of a program restricted to one walker, all others at
    coin 0, vertex 00.

    Only meaningful when the program acts trivially on the pinned walkers
    (checked by unitarity of the result)."""
    return basis_matrix(program, layout, [b << (3 * layout.slot(particle)) for b in range(8)])


def operator_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance, insensitive to a global phase on ``a``."""
    a = np.asarray(a)
    b = np.asarray(b)
    tr = np.trace(b.conj().T @ a)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.max(np.abs(a / phase - b)))
