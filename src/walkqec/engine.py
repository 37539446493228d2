"""Exact state-vector engine for the multi-walker discrete-time walk.

Each walker lives on its own square with vertices labelled 00, 10, 11, 01
(clockwise) and carries a two-level coin.  A walker's basis index is
b = 4c + 2x + y, and the global index packs walkers with P0 least
significant; the external walker, when present, is most significant.

Every map on one walker runs on one kernel, ``apply_walker_maps``: an
8x8 map as a matmul over the (above, 8, below) view, one pass over the
array into a scratch buffer.  A float64 map above slot 0 runs as one
real product over the amplitudes' float64 view, (above, 8, 2 * below),
with the same values as the complex product, bit for bit; complex maps
and maps on slot 0 keep the complex product.  Compiled programs run on
it and on ``apply_signed_permutation`` (a gather times an int8 sign);
the public coin, local-coin and walker-unitary operations are thin
wrappers over it.  The shift is one flat gather and the neighbor
interaction one masked negation, each a single pass per step.

The step operations build the tests' per-step reference executor, and
the benchmark's tracer binds them by name.  They return a new state and
leave their input as it was; only ``measure_coin`` writes into it.  A
``CoinSpec`` is an immutable value: its entries are read-only copies,
and equal specs compare and hash equal, so a program holding them can
key the compile cache.

Measurement and Pauli-word kernels act on strided views of the
amplitude array.  A coin measurement reads the walker's coin and resets
it to 0.  It takes each outcome's probability from its own coin half,
both halves summed in one BLAS-free pass, and writes only the kept
half, scaled by 1/sqrt(prob) on the amplitudes' float64 view, into coin
0: a complex division's values, up to the sign of a zero.  A certain
outcome (the other half exactly 0.0) is not scaled, so outcome 0 makes
no pass over its half and outcome 1 is a move, and the last surviving
outcome collapses into the input's array.  Pauli-word factors are
cached per (layout, word) with read-only sign tensors.

A walker is parked at b = 0 (coin 0, vertex 00).  A ``Layout`` can park
walkers: they are held at b = 0 and left out of the packed index, so its
states are the full layout's amplitudes at b = 0 of each parked walker.
Its neighbor parity is the full layout's read there, so a parked walker
still interacts with its neighbors.  ``take_slice`` reads the amplitudes
with every walker outside a kept set parked, as a state of the layout
that parks them; ``restrict`` does the same and raises when more than
``PARKED_TOL`` of the weight lies elsewhere; ``extend`` is their
inverse.  Compiled runs take their slice with ``take_slice`` (their
exact scan has shown the weight outside to be 0.0) and extend each
branch back; readout goes through ``restrict``; preparation and
encoded sessions go through ``extend``.
The slice is exact for a run that acts on no parked walker: a shift
fixes b = 0 and the neighbor step is diagonal, so the amplitudes outside
the slice stay exactly 0.0.

``extend`` makes the array it fills read-only and records on the state
the walkers it left free (``StateVector.unparked``).  The record holds
only while the state holds that same read-only array: a copy, a swapped
array or one made writable again reads as every walker free.  The
executor's slice skips the scan for every walker the record parks, and
``restrict`` skips its weight pass when the record parks every walker
outside its ``keep``.

Working arrays come from ``empty_amps``: ``StateVector.copy``, the
shift's gather, a walker-map operation's passes, the first of two
measurement children, ``extend``, and the executor's start copy and
scratch.  Arrays of 8,192 to 32,768 amplitudes (a FIVE state) are
recycled: one is handed out again once no state, branch or view
references it, so a campaign trial stops re-faulting its memory; it is
made writable first, as ``extend`` may have made it read-only.  Other
sizes are new arrays.  Every caller writes every element it is handed,
so no result depends on what an array held before.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

import numpy as np

from .pauli import PEX, PauliWord

ATOL = 1e-12          # absolute per entry: each np.allclose here passes rtol=0
PARKED_TOL = 1e-12    # weight a restriction may leave outside its slice
BRANCH_TOL = 1e-12    # an outcome of at most this probability is dropped or refused

# Vertex labels in clockwise order; v = 2x + y.
VERTEX_LABELS = ("00", "10", "11", "01")
V_OF_LABEL = {"00": 0, "10": 2, "11": 3, "01": 1}
LABEL_OF_V = {v: k for k, v in V_OF_LABEL.items()}
V_SUCC = {0: 2, 2: 3, 3: 1, 1: 0}  # one clockwise step

# Per-walker shift permutation on b = 4c + v: coin 1 advances clockwise.
_SHIFT_PERM = np.zeros(8, dtype=np.int64)
for _v in range(4):
    _SHIFT_PERM[_v] = _v
    _SHIFT_PERM[4 + _v] = 4 + V_SUCC[_v]
# Gather indices: new[b] = old[_SHIFT_GATHER[b]].
_SHIFT_GATHER = np.argsort(_SHIFT_PERM)
# The same shift as an 8x8 map on one walker.
SHIFT_MAP = np.eye(8, dtype=complex)[_SHIFT_GATHER]

# Named 2x2 coin operators.
COIN_I = np.eye(2, dtype=complex)
COIN_X = np.array([[0, 1], [1, 0]], dtype=complex)
COIN_Z = np.array([[1, 0], [0, -1]], dtype=complex)
COIN_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
COIN_HP = (COIN_X - COIN_Z) / np.sqrt(2)  # H' = (X - Z)/sqrt(2)
COIN_S = np.diag(np.exp([-1j * np.pi / 4, 1j * np.pi / 4]))   # exp(-i pi/4 Z)
COIN_T = np.diag(np.exp([1j * np.pi / 8, -1j * np.pi / 8]))   # exp(+i pi/8 Z)


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.allclose(u.conj().T @ u, np.eye(u.shape[0]), rtol=0, atol=ATOL))


@dataclass(frozen=True)
class Layout:
    """Walker arrangement: nested squares P0..P(n-1), optional external.

    Nested neighbors are the pairs (i, i+1); they interact at equal coin
    and equal vertex.  The external walker is adjacent to the outermost
    nested walker and interacts only at (PEX@10, P4@00) and
    (PEX@11, P4@01), again with equal coins.

    Walkers in ``parked`` are held at b = 0 (coin 0, vertex 00) and are
    absent from the packed index: ``particles``, ``dim`` and ``slot``
    cover the other walkers only.  A parked external walker never fires
    its interaction, so it is the same as no external walker.
    """

    num_nested: int = 5
    with_external: bool = False
    parked: frozenset = frozenset()

    def __post_init__(self):
        if self.num_nested < 1:
            raise ValueError("layout needs at least one walker")
        if self.with_external and self.num_nested != 5:
            raise ValueError("external walker is only supported on the 5-walker layout")
        parked = frozenset(self.parked)
        unknown = parked - set(range(self.num_nested)) - ({PEX} if self.with_external else set())
        if unknown:
            raise ValueError(f"parked walkers {sorted(unknown)} not in layout")
        if PEX in parked:
            object.__setattr__(self, "with_external", False)
            parked -= {PEX}
        object.__setattr__(self, "parked", parked)

    @cached_property
    def particles(self) -> tuple:
        """The unparked walkers in slot order."""
        ps = tuple(p for p in range(self.num_nested) if p not in self.parked)
        return ps + (PEX,) if self.with_external else ps

    @property
    def num_particles(self) -> int:
        return len(self.particles)

    @property
    def dim(self) -> int:
        return 8 ** self.num_particles

    @cached_property
    def _slots(self) -> dict:
        return {p: s for s, p in enumerate(self.particles)}

    def slot(self, particle: int) -> int:
        """Position of a walker in the index packing (the lowest unparked
        nested walker is 0, the external walker is last)."""
        slot = self._slots.get(particle)
        if slot is None:
            if particle in self.parked:
                raise ValueError(f"walker {particle} is parked in this layout")
            if particle == PEX:
                raise ValueError("layout has no external walker")
            raise ValueError(f"walker {particle} not in layout")
        return slot

    def nested_pairs(self) -> tuple:
        """Adjacent nested walkers, parked or not."""
        return tuple((i, i + 1) for i in range(self.num_nested - 1))

    def parking(self, keep: Iterable[int]) -> "Layout":
        """This layout with every walker outside ``keep`` parked as well."""
        keep = set(keep)
        for p in keep:
            self.slot(p)  # rejects walkers that are parked or not in the layout
        return Layout(self.num_nested, self.with_external,
                      self.parked | (set(self.particles) - keep))


FIVE = Layout(5, False)
SIX = Layout(5, True)


def neighbor_parity(layout: Layout) -> np.ndarray:
    """True where an odd number of adjacent pairs match: the neighbor
    interaction's -1 entries.

    The parity is accumulated on a bool (8,) * n view from 8x8 pair
    tables broadcast over the other walkers, so no index array over the
    whole state is built.  A parked walker's side of a table is read at
    b = 0, so this is the full layout's parity at the parked index.
    """
    n = layout.num_particles
    odd = np.zeros((8,) * n, dtype=bool)

    def on_axes(table: np.ndarray, p: int, q: int) -> np.ndarray:
        table = table[tuple(0 if w in layout.parked else slice(None) for w in (p, q))]
        axes = [n - 1 - layout.slot(w) for w in (p, q) if w not in layout.parked]
        if len(axes) == 2 and axes[0] > axes[1]:
            table = table.T
        shape = [1] * n
        for ax in axes:
            shape[ax] = 8
        return table.reshape(shape)

    for i, j in layout.nested_pairs():
        odd ^= on_axes(np.eye(8, dtype=bool), i, j)
    if layout.with_external:
        ext = np.zeros((8, 8), dtype=bool)  # indexed [b(PEX), b(P4)]
        for coin in (0, 4):
            # PEX at 10 with P4 at 00, and PEX at 11 with P4 at 01.
            ext[coin + 2, coin + 0] = ext[coin + 3, coin + 1] = True
        odd ^= on_axes(ext, PEX, 4)
    return odd.reshape(-1)


@lru_cache(maxsize=8)
def _shift_gather_flat(layout: Layout) -> np.ndarray:
    """Flat gather indices applying the global shift in one pass."""
    idx = np.arange(layout.dim, dtype=np.int64)
    src = np.zeros(layout.dim, dtype=np.int64)
    for p in layout.particles:
        shift_amt = 3 * layout.slot(p)
        src |= _SHIFT_GATHER[(idx >> shift_amt) & 7] << shift_amt
    return src


class _Recycler:
    """Complex working arrays of 8,192 to 32,768 amplitudes (128-512 KiB),
    handed out again once nothing else references them.

    Freed arrays of that size go back to the OS between calls, and every
    new one pays its page faults again; smaller ones come from the
    allocator's free lists without faults, and larger ones are not held.
    At most ``HELD_PER_SIZE`` arrays of each size are held, for the life
    of the process.  An array is free when its reference count reads as
    that of an item only its list holds, measured once here: a live
    state, a branch or a view (which references its base) keeps it in
    use.  The counts are CPython's; every caller writes every element.
    """

    SIZES = range(8192, 32769)
    HELD_PER_SIZE = 16

    def __init__(self):
        self.held: dict = {}   # amplitude count -> arrays handed out before
        self._free_refs = self._listed_refs()

    @staticmethod
    def _listed_refs() -> int:
        """An item's reference count when only its list holds it, read
        the way ``empty`` reads it."""
        for item in [object()]:
            return sys.getrefcount(item)

    def empty(self, dim: int) -> np.ndarray:
        """An uninitialized, writable complex array of ``dim`` amplitudes."""
        if dim not in self.SIZES:
            return np.empty(dim, dtype=complex)
        held = self.held.setdefault(dim, [])
        for arr in held:
            if sys.getrefcount(arr) == self._free_refs:
                arr.flags.writeable = True   # ``extend`` may have made it read-only
                return arr
        arr = np.empty(dim, dtype=complex)
        if len(held) < self.HELD_PER_SIZE:
            held.append(arr)
        return arr


empty_amps = _Recycler().empty


class StateVector:
    """Complex amplitudes over the walkers' (coin, vertex) product basis.

    Only ``extend`` sets the record ``unparked`` reads; every other
    constructor, ``copy`` included, leaves it unset.
    """

    __slots__ = ("layout", "amps", "_extended")

    def __init__(self, layout: Layout, amps: np.ndarray):
        if amps.shape != (layout.dim,):
            raise ValueError(f"amplitude array must have shape ({layout.dim},)")
        self.layout = layout
        self.amps = amps
        self._extended: Optional[tuple] = None   # (free walkers, array), set by extend

    def unparked(self) -> tuple:
        """The walkers that may sit away from b = 0: those ``extend`` left
        free, while the state still holds the read-only array it filled;
        every walker of the layout otherwise."""
        record = self._extended
        if record is not None and record[1] is self.amps and not self.amps.flags.writeable:
            return record[0]
        return self.layout.particles

    def copy(self) -> "StateVector":
        amps = empty_amps(self.layout.dim)
        np.copyto(amps, self.amps)
        return StateVector(self.layout, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def check_norm(self) -> None:
        if abs(self.norm() - 1.0) > ATOL:
            raise ValueError(f"state norm deviates from 1 by {abs(self.norm()-1.0):.3e}")

    def coin_view(self, particle: int) -> np.ndarray:
        """Writable (above, coin, vertex, below) view around one walker."""
        return self.amps.reshape(-1, 2, 4, 8 ** self.layout.slot(particle))

    def __repr__(self):
        return f"StateVector(particles={self.layout.particles}, dim={self.layout.dim})"


def init_state(layout: Layout, placements: Iterable[tuple]) -> StateVector:
    """Basis state with each walker at (coin, vertex-label)."""
    placed = {}
    for particle, coin, vertex in placements:
        if particle in placed:
            raise ValueError(f"duplicate placement for walker {particle}")
        if coin not in (0, 1):
            raise ValueError(f"coin must be 0 or 1, got {coin}")
        placed[particle] = 4 * coin + V_OF_LABEL[vertex]
    missing = set(layout.particles) - set(placed)
    if missing or set(placed) - set(layout.particles):
        raise ValueError(f"placements must cover the layout exactly (missing {sorted(missing)})")
    flat = 0
    for particle, b in placed.items():
        flat |= b << (3 * layout.slot(particle))
    amps = np.zeros(layout.dim, dtype=complex)
    amps[flat] = 1.0
    return StateVector(layout, amps)


def all_at_origin(layout: Layout) -> StateVector:
    return init_state(layout, [(p, 0, "00") for p in layout.particles])


def _parked_index(layout: Layout, keep: Iterable[int]) -> tuple:
    """Index into the (8,) * n view, most significant walker first, that
    takes each walker in ``keep`` whole and every other walker at b = 0;
    and the layout with those other walkers parked."""
    small = layout.parking(keep)
    index = tuple(slice(None) if p in small.particles else 0
                  for p in reversed(layout.particles))
    return index, small


def take_slice(state: StateVector, keep: Iterable[int]) -> StateVector:
    """The amplitudes with every walker outside ``keep`` parked (b = 0:
    coin 0, vertex 00), as a state of the layout that parks them.

    The kept walkers keep their labels and their order, so a word on
    them applies to the result as it is.  The weight outside the slice
    is not checked: this is for a caller that has shown it to be exactly
    0.0.  The result owns its array.
    """
    index, small = _parked_index(state.layout, keep)
    vec = state.amps.reshape((8,) * state.layout.num_particles)[index].copy().reshape(-1)
    return StateVector(small, vec)


def restrict(state: StateVector, keep: Iterable[int]) -> StateVector:
    """``take_slice``, checked: raises ValueError when more than
    ``PARKED_TOL`` of the state's weight lies outside the slice.  The
    check is skipped when ``extend`` built the array with every walker
    outside ``keep`` parked (``StateVector.unparked``)."""
    keep = tuple(keep)
    small = take_slice(state, keep)
    if set(state.unparked()) <= set(keep):
        return small
    outside = float(np.vdot(state.amps, state.amps).real - np.vdot(small.amps, small.amps).real)
    if outside > PARKED_TOL:
        raise ValueError(f"walkers outside the kept ones are not parked: weight "
                         f"{outside:.3e} lies outside their slice")
    return small


def extend(layout: Layout, keep: Iterable[int], vec: np.ndarray) -> StateVector:
    """Inverse of ``restrict``: the ``layout`` state holding ``vec``, the
    amplitudes of ``layout.parking(keep)``, with every other walker parked.

    The array comes from ``empty_amps`` and is zeroed in full, so every
    amplitude and every page is written.  Pages of an ``np.zeros`` array
    that are never written stay unmapped, and how much of such an array
    is resident follows the host's huge-page policy, not the state.  The
    array is then made read-only and the state records the walkers left
    free (``StateVector.unparked``), so a later slice need not scan for
    them.
    """
    index, small = _parked_index(layout, keep)
    amps = empty_amps(layout.dim)
    amps.fill(0j)
    amps.reshape((8,) * layout.num_particles)[index] = vec.reshape((8,) * small.num_particles)
    amps.flags.writeable = False
    state = StateVector(layout, amps)
    state._extended = (small.particles, amps)
    return state


class CoinSpec:
    """Vertex-conditioned coin operators, one 2x2 unitary per (walker, vertex).

    Built from a whole ``{(walker, vertex label): u}`` mapping.  Entries
    default to the identity; only non-identity entries are kept, as
    read-only copies in the read-only mapping ``entries``, keyed by
    (walker, v).  Specs with equal entries compare and hash equal.
    """

    def __init__(self, entries: Optional[Mapping[tuple, np.ndarray]] = None):
        kept = {}
        for (particle, vertex), u in (entries or {}).items():
            u = np.array(u, dtype=complex)
            if u.shape != (2, 2) or not is_unitary(u):
                raise ValueError(f"coin entry for ({particle}, {vertex}) is not a 2x2 unitary")
            if not np.allclose(u, COIN_I, rtol=0, atol=ATOL):
                u.flags.writeable = False
                kept[(particle, V_OF_LABEL[vertex])] = u
        self.entries = MappingProxyType(kept)
        self._key = tuple((pv, u.tobytes()) for pv, u in sorted(kept.items()))
        self._hash = hash(self._key)

    def __eq__(self, other) -> bool:
        return isinstance(other, CoinSpec) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def uniform(particles: Iterable[int], u: np.ndarray) -> "CoinSpec":
        return CoinSpec({(p, label): u for p in particles for label in VERTEX_LABELS})

    def walker_maps(self) -> dict:
        """The update as one 8x8 map per touched walker."""
        maps: dict = {}
        for (particle, v), u in self.entries.items():
            m = maps.setdefault(particle, np.eye(8, dtype=complex))
            m[[v, v, 4 + v, 4 + v], [v, 4 + v, v, 4 + v]] = u.reshape(-1)
        return maps

    def is_identity(self) -> bool:
        return not self.entries

    def describe(self) -> str:
        if not self.entries:
            return "identity"
        bits = []
        for (p, v), u in sorted(self.entries.items()):
            name = _coin_name(u)
            bits.append(f"P{p}@{LABEL_OF_V[v]}:{name}")
        return ",".join(bits)


def _coin_name(u: np.ndarray) -> str:
    for name, ref in (("X", COIN_X), ("Z", COIN_Z), ("H", COIN_H), ("H'", COIN_HP),
                      ("S", COIN_S), ("T", COIN_T), ("I", COIN_I)):
        if np.allclose(u, ref, rtol=0, atol=ATOL):
            return name
    return "U"


def apply_coin(state: StateVector, spec: CoinSpec) -> StateVector:
    """Apply the vertex-conditioned coin update to every walker."""
    return _apply_maps(state, list(spec.walker_maps().items()))


def apply_local_coin(state: StateVector, particle: int, u: np.ndarray) -> StateVector:
    """Apply one 2x2 unitary to a walker's coin at every vertex."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("local coin operator must be unitary")
    return _apply_maps(state, [(particle, np.kron(u, np.eye(4)))])


def apply_shift(state: StateVector) -> StateVector:
    """Coin-1 components advance one clockwise vertex; coin-0 stay put."""
    out = empty_amps(state.layout.dim)
    np.take(state.amps, _shift_gather_flat(state.layout), out=out, mode="clip")
    return StateVector(state.layout, out)


def apply_neighbor(state: StateVector) -> StateVector:
    """Phase -1 on components where adjacent walkers match (coin and vertex)."""
    out = state.copy()
    np.negative(out.amps, out=out.amps, where=neighbor_parity(state.layout))
    return out


def apply_particle_unitary(state: StateVector, particle: int, u8: np.ndarray) -> StateVector:
    """Apply an 8x8 unitary to one walker's (coin, vertex) factor."""
    u8 = np.asarray(u8, dtype=complex)
    if u8.shape != (8, 8) or not is_unitary(u8):
        raise ValueError("walker operator must be an 8x8 unitary")
    return _apply_maps(state, [(particle, u8)])


def _apply_maps(state: StateVector, maps: list) -> StateVector:
    """(particle, u8) maps through ``apply_walker_maps``, one pass each.

    The first pass reads the input's array and writes a new one, so the
    input is left as it was; the later passes, if any, swap that array
    with a second new one.  With no map the result is a copy.
    """
    if not maps:
        return state.copy()
    out = StateVector(state.layout, state.amps)
    apply_walker_maps(out, maps[:1], empty_amps(state.layout.dim))
    if len(maps) > 1:
        apply_walker_maps(out, maps[1:], empty_amps(state.layout.dim))
    return out


def apply_walker_maps(state: StateVector, maps, scratch: np.ndarray) -> np.ndarray:
    """Apply 8x8 maps, given as (particle, u8) pairs, one pass each.

    Each pass writes ``scratch`` from ``state.amps`` and then swaps the
    two, so the state holds the result; the spare buffer is returned.
    A float64 ``u8`` above slot 0 acts on the amplitudes' float64 view,
    where each walker row holds the real and imaginary parts side by
    side: one real product, with the same values as the complex one.
    """
    for particle, u8 in maps:
        below = 8 ** state.layout.slot(particle)
        if below == 1:
            # one (above x 8) @ (8 x 8) product instead of a batch of columns
            np.matmul(state.amps.reshape(-1, 8), u8.T, out=scratch.reshape(-1, 8))
        elif u8.dtype == np.float64:
            src = state.amps.view(np.float64).reshape(-1, 8, 2 * below)
            np.matmul(u8, src, out=scratch.view(np.float64).reshape(src.shape))
        else:
            src = state.amps.reshape(-1, 8, below)
            np.matmul(u8, src, out=scratch.reshape(src.shape))
        state.amps, scratch = scratch, state.amps
    return scratch


def apply_signed_permutation(state: StateVector, gather: np.ndarray, sign: np.ndarray,
                             scratch: np.ndarray) -> np.ndarray:
    """new[i] = sign[i] * old[gather[i]], with ``sign`` an int8 array of +/-1.

    Writes ``scratch`` and swaps it with ``state.amps`` like
    ``apply_walker_maps``.  ``mode="clip"`` lets ``np.take`` write into
    ``out`` directly; the default mode would buffer a full copy.
    """
    np.take(state.amps, gather, out=scratch, mode="clip")
    np.multiply(scratch, sign, out=scratch)
    state.amps, scratch = scratch, state.amps
    return scratch


@lru_cache(maxsize=256)
def _word_factors(layout: Layout, word: PauliWord) -> tuple:
    """(flipped axes, sign tensor) of a Pauli word over the (2,) * 3n bit view.

    Bit axes run most-significant first.  The sign tensor carries the
    word's phase and, per Z axis, a factor of -1 where the source bit is
    set; on an axis X also flips, the source bit is the complement.
    Cached, so the sign tensor is read-only.
    """
    n_bits = 3 * layout.num_particles
    flips, zs = set(), set()
    phase_pow = word.phase_pow
    role_bit = {"y": 0, "x": 1, "c": 2}
    for qubit, letter in word.ops:
        axis = n_bits - 1 - (3 * layout.slot(qubit.particle) + role_bit[qubit.role])
        if letter in ("X", "Y"):
            flips.add(axis)
        if letter in ("Z", "Y"):
            zs.add(axis)
        if letter == "Y":
            phase_pow += 1
    sign = np.full((1,) * n_bits, (1j) ** (phase_pow % 4))
    for axis in zs:
        factor = np.array([-1.0, 1.0] if axis in flips else [1.0, -1.0])
        sign = sign * factor.reshape(tuple(2 if k == axis else 1 for k in range(n_bits)))
    sign.flags.writeable = False
    return tuple(sorted(flips)), sign


def apply_pauli_word(state: StateVector, word: PauliWord) -> StateVector:
    """Apply a signed Pauli word; exact (no matrix is materialized)."""
    flips, sign = _word_factors(state.layout, word)
    bits = state.amps.reshape((2,) * sign.ndim)
    return StateVector(state.layout, (np.flip(bits, flips) * sign).reshape(-1))


def expectation(state: StateVector, word: PauliWord) -> float:
    """<state| word |state> for a Hermitian word."""
    if not word.is_hermitian():
        raise ValueError("expectation requires a Hermitian word (real phase)")
    val = np.vdot(state.amps, apply_pauli_word(state, word).amps)
    if abs(val.imag) > 1e-10:
        raise AssertionError(f"expectation of Hermitian word came out complex: {val}")
    return float(val.real)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, global-phase invariant."""
    if a.amps.shape != b.amps.shape:
        raise ValueError("fidelity requires equal dimensions")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def project_pauli(state: StateVector, word: PauliWord, sign: int) -> tuple:
    """Project onto the +/-1 eigenspace of a Hermitian involution.

    Returns (normalized post-projection state, pre-projection probability).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not word.is_hermitian():
        raise ValueError("projection requires a Hermitian word")
    moved = apply_pauli_word(state, word)
    amps = 0.5 * (state.amps + sign * moved.amps)
    prob = float(np.vdot(amps, amps).real)
    if prob < BRANCH_TOL:
        raise ValueError(f"projection onto {sign:+d} eigenspace has probability {prob:.3e}")
    return StateVector(state.layout, amps / np.sqrt(prob)), prob


def coin_one_probability(state: StateVector, particle: int) -> float:
    """Weight of a walker's coin-1 half, as ``np.vdot`` of the flattened
    half (a copy unless the walker is the most significant).

    ``measure_coin`` does not use it: it takes both halves' weights from
    one BLAS-free pass (``_coin_weights``).
    """
    a = state.coin_view(particle)[:, 1].reshape(-1)
    return float(np.real(np.vdot(a, a)))


def _coin_halves(state: StateVector, particle: int) -> np.ndarray:
    """The amplitudes' float64 view as (above, coin, rest): the two coin
    halves of one walker, two numbers per amplitude."""
    return state.amps.view(np.float64).reshape(-1, 2, 8 ** (state.layout.slot(particle) + 1))


def _coin_weights(state: StateVector, particle: int) -> tuple:
    """Weights of a walker's coin-0 and coin-1 halves, in one pass.

    Both sums of squares come from one ``einsum`` over the float64 view,
    which uses no BLAS, so they round the same at any thread count.  A
    half whose weight is exactly 0.0 makes the other weight exactly 1.0:
    that outcome is certain, and its collapse makes no pass.
    """
    halves = _coin_halves(state, particle)
    p0, p1 = (float(w) for w in np.einsum("ijk,ijk->j", halves, halves))
    if p0 == 0.0:
        return 0.0, 1.0
    if p1 == 0.0:
        return 1.0, 0.0
    return p0, p1


def _collapse_coin(state: StateVector, particle: int, outcome: int, prob: float,
                   out: StateVector) -> StateVector:
    """Write the post-measurement, reset state into ``out``, which may be
    ``state``: the kept coin half scaled by 1/sqrt(prob) into coin 0, coin
    1 zeroed.

    The scale runs on the amplitudes' float64 view.  numpy divides a
    complex by a real as (re + im*0) * (1/c), so the values are a complex
    division's; only the sign of a zero can differ.  A certain outcome
    (scale exactly 1.0) is copied unscaled, -0.0 included, and outcome 0
    kept in place makes no pass over its half.
    """
    scale = 1.0 / np.sqrt(prob)
    src = _coin_halves(state, particle)
    dst = _coin_halves(out, particle)
    if scale != 1.0:
        np.multiply(src[:, outcome], scale, out=dst[:, 0])
    elif out is not state or outcome:
        dst[:, 0] = src[:, outcome]
    dst[:, 1] = 0.0
    return out


def measure_coin(state: StateVector, particle: int, *,
                 rng: Optional[np.random.Generator] = None,
                 forced: Optional[int] = None,
                 both_branches: bool = False):
    """Projective Z-basis measurement of a walker's coin, which is then
    reset to 0: each outcome's kept half is written into coin 0.

    Policies: seeded random (pass ``rng``), forced outcome (0 or 1), or
    both branches.  Both-branches returns [(bit, state, probability), ...]
    with branches of probability at most ``BRANCH_TOL`` dropped; the
    others return a single triple, and a forced outcome below it raises.
    The last outcome's state is ``state`` itself, and when two survive
    the first gets a new array.  Each outcome's probability is the weight
    of its own coin half (``_coin_weights``).
    """
    probs = _coin_weights(state, particle)
    if both_branches:
        bits = [b for b in (0, 1) if probs[b] > BRANCH_TOL]
    elif forced is not None:
        if forced not in (0, 1):
            raise ValueError(f"forced outcome must be 0 or 1, got {forced!r}")
        if probs[forced] < BRANCH_TOL:
            raise ValueError(f"forced outcome {forced} has probability {probs[forced]:.3e}")
        bits = [forced]
    elif rng is None:
        raise ValueError("measure_coin needs an rng, a forced outcome, or both_branches=True")
    else:
        bits = [int(rng.random() < probs[1])]
    results = []
    for k, b in enumerate(bits):
        last = k == len(bits) - 1
        out = state if last else StateVector(state.layout, empty_amps(state.layout.dim))
        results.append((b, _collapse_coin(state, particle, b, probs[b], out), probs[b]))
    return results if both_branches else results[0]
