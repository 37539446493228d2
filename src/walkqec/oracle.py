"""Brute-force ground truth: dense operators and program-unitary extraction.

Everything here trades speed for transparency.  Dense matrices are built
by Kronecker products in a documented qubit order and never exceed
dimension 4096; the strided engine is checked against them, not the other
way around.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .engine import Layout, StateVector, basis_index
from .pauli import PauliWord, q
from .programs import WalkProgram, run_unitary

_P1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Dense qubit order for the 512-dim data space, most significant first:
# the dense index of a data basis state is its ``basis_index`` on the
# 512-amplitude data slice.
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
    return basis_matrix(program, layout, [basis_index(layout, {particle: b}) for b in range(8)])

