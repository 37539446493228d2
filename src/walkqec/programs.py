"""Walk-program compiler: each protocol becomes an explicit step sequence.

A program is a list of steps over {Coin, Shift, Neighbor, MeasureCoin}.
A Coin step is a vertex-conditioned coin on any set of walkers, one 2x2
unitary per (walker, vertex); a coin on one walker at every vertex is
``Coin(CoinSpec.uniform((p,), u))``.  Coin/Shift/Neighbor steps are
globally synchronous across walkers.  Structure is used for guarantees:
transform blocks simply contain no Neighbor steps, which is how neighbor
interactions are suppressed there.  A MeasureCoin step reads a walker's
coin into its tag and leaves the coin at 0, ready for the next read.

``run_program`` executes a program compiled into segments.  MeasureCoin
steps are barriers.  Between them, each walker's Coin and Shift steps
fold into one 8x8 map; maps that are signed permutations fold, with the
Neighbor steps, into one gather table, and the others are applied as
walker maps.  Gather tables are built on the engine's own kernels, so
only ``engine`` knows how walkers pack into the amplitude index.  A
walker map with no imaginary part is stored as a contiguous, read-only
float64 8x8, which the kernel applies as one real product: every map of
the syndrome cycle and of the CNOT is real.  The segments are then
scheduled around the measurements (``_schedule``): maps on walkers that
a run of MeasureCoin barriers does not touch move ahead of the run, so
they run before the measurements multiply the branches.  A syndrome
cycle of 94 steps runs as 9 array segments, a T gate as 5.  At the
barriers, measurements collapse each branch in place and reset the coin
inside the collapse.  Every walk the codec runs is built here.

Programs are immutable values: every step is frozen and every
``CoinSpec`` is read-only, so a ``WalkProgram`` is itself the compile
cache's key, and equal programs built twice share one entry.

Each run covers only the walkers the program moves: its slice keeps
the walkers its Coin entries and MeasureCoin steps act on, and every
other walker in the state's exact support (``engine.support``, which
trusts ``extend``'s record and scans the rest with ``!= 0``).  The rest
are parked (``engine.take_slice``): a Shift fixes b = 0 and Neighbor is
diagonal, so their amplitudes outside the slice are exactly 0.0 before
and after the run, and extending each branch back
(``engine.extend``) loses no weight.  On a freshly encoded six-walker
state a T gate runs on 4,096 amplitudes and a transversal Clifford on
512.  The start copy, the segment scratch and the measurement children
come from ``engine.empty_amps``, so the 32,768-amplitude arrays of a
syndrome cycle on FIVE are recycled from run to run.  ``run_program``
is the one executor; the tests compare it with a per-step reference.
``listing()`` and the step counts describe the source program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from . import engine
from .engine import (BRANCH_TOL, COIN_H, COIN_HP, COIN_S, COIN_X, COIN_Z, CoinSpec,
                     Layout, StateVector)
from .pauli import ANCILLA_PARTICLES, DATA_PARTICLES, P1, P3, PEX


@dataclass(frozen=True)
class Coin:
    spec: CoinSpec

    def describe(self) -> str:
        return f"coin {self.spec.describe()}"


@dataclass(frozen=True)
class Shift:
    def describe(self) -> str:
        return "shift"


@dataclass(frozen=True)
class Neighbor:
    def describe(self) -> str:
        return "neighbor"


@dataclass(frozen=True)
class MeasureCoin:
    """Measure a walker's coin into ``tag``, then reset the coin to 0."""

    particle: int
    tag: str

    def describe(self) -> str:
        return f"measure P{self.particle} -> {self.tag}, reset"


@dataclass(frozen=True)
class WalkProgram:
    """A named tuple of steps, immutable like its steps and their coin
    specs.  Its hash, its walkers and whether it measures are computed
    once per program object."""

    name: str
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name, self.steps)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def walkers(self) -> frozenset:
        """The walkers the steps act on: those of Coin entries and
        MeasureCoin.  Shift and Neighbor are not counted: both fix a walker
        at b = 0."""
        acted = set()
        for step in self.steps:
            if isinstance(step, Coin):
                acted.update(p for p, _ in step.spec.entries)
            elif isinstance(step, MeasureCoin):
                acted.add(step.particle)
        return frozenset(acted)

    @cached_property
    def has_measurements(self) -> bool:
        return any(isinstance(s, MeasureCoin) for s in self.steps)

    def listing(self) -> str:
        lines = [f"# program {self.name}"]
        for i, step in enumerate(self.steps):
            lines.append(f"{i:3d}  {step.describe()}")
        return "\n".join(lines)


@dataclass
class Branch:
    """One measurement branch of a program run."""

    state: StateVector
    probability: float = 1.0
    outcomes: dict = field(default_factory=dict)


# ------------------------------------------------------------ compile pass

@dataclass(frozen=True, eq=False)
class WalkerMaps:
    """One 8x8 map per walker, (particle, u8) pairs, applied in one pass
    each; a map with no imaginary part is held as float64."""

    maps: tuple

    def apply(self, state: StateVector, scratch: np.ndarray) -> np.ndarray:
        return engine.apply_walker_maps(state, self.maps, scratch)


@dataclass(frozen=True, eq=False)
class SignedPermutation:
    """new[i] = sign[i] * old[gather[i]], ``sign`` an int8 array of +/-1."""

    gather: np.ndarray
    sign: np.ndarray

    def apply(self, state: StateVector, scratch: np.ndarray) -> np.ndarray:
        return engine.apply_signed_permutation(state, self.gather, self.sign, scratch)


_NEIGHBOR = "neighbor"   # marker between walker products in a permutation's ops


@lru_cache(maxsize=64)
def compile_program(program: WalkProgram, layout: Layout) -> tuple:
    """The program as segments: WalkerMaps, SignedPermutation and
    MeasureCoin barriers.

    Cached per (program, layout); equal programs share one entry.  The
    segments are then scheduled around the measurement barriers (see
    ``_schedule``).
    """
    segments: list = []
    run: list = []
    for step in program.steps:
        if isinstance(step, MeasureCoin):
            segments += _fuse(run, layout)
            segments.append(step)
            run = []
        elif isinstance(step, (Coin, Shift, Neighbor)):
            run.append(step)
        else:
            raise TypeError(f"unknown step {step!r}")
    return tuple(_schedule(segments + _fuse(run, layout)))


def _schedule(segments: list) -> list:
    """Hoist walker maps across measurement barriers.

    Take a run of MeasureCoin barriers between two WalkerMaps segments.
    The later segment's maps on walkers no measurement of the run touches
    commute with the run, so they move into the earlier segment as extra
    passes, in their order, and run before the measurements multiply the
    branches; a segment left empty is dropped, and the runs it separated
    merge.  Nothing crosses a SignedPermutation.
    """
    out: list = []
    for seg in segments:
        start = len(out)
        while start and isinstance(out[start - 1], MeasureCoin):
            start -= 1
        if (isinstance(seg, WalkerMaps) and 0 < start < len(out)
                and isinstance(out[start - 1], WalkerMaps)):
            touched = {out[i].particle for i in range(start, len(out))}
            moved = tuple(pm for pm in seg.maps if pm[0] not in touched)
            kept = tuple(pm for pm in seg.maps if pm[0] in touched)
            out[start - 1] = WalkerMaps(out[start - 1].maps + moved)
            if not kept:
                continue
            seg = WalkerMaps(kept)
        out.append(seg)
    return out


def _walker_products(steps: list, layout: Layout) -> list:
    """Per-walker products of the steps between Neighbor steps.

    Returns k + 1 dicts particle -> 8x8 for k Neighbor steps; exact
    identities are dropped.
    """
    groups = [{}]
    for step in steps:
        if isinstance(step, Neighbor):
            groups.append({})
            continue
        if isinstance(step, Coin):
            factors = step.spec.walker_maps()
        else:
            factors = dict.fromkeys(layout.particles, engine.SHIFT_MAP)
        for particle, m in factors.items():
            layout.slot(particle)  # rejects walkers outside the layout
            acc = groups[-1]
            acc[particle] = m @ acc[particle] if particle in acc else m
    eye = np.eye(8)
    return [{p: m for p, m in g.items() if not np.array_equal(m, eye)} for g in groups]


def _as_signed_permutation(m: np.ndarray):
    """(source, sign) tuples with m[b, source[b]] = sign[b], or None."""
    rows, cols = np.nonzero(m)
    values = m[rows, cols]
    if (not np.array_equal(rows, np.arange(8)) or len(set(cols.tolist())) != 8
            or not np.all((values == 1) | (values == -1))):
        return None
    return tuple(cols.tolist()), tuple(int(v) for v in values.real)


def _operand(m: np.ndarray) -> np.ndarray:
    """A walker map as the kernel's operand: a contiguous, read-only
    float64 copy when it has no imaginary part, the map itself otherwise."""
    if m.imag.any():
        return m
    real = np.ascontiguousarray(m.real)
    real.flags.writeable = False
    return real


def _fuse(steps: list, layout: Layout) -> list:
    """Segments for a barrier-free run of Coin/Shift/Neighbor steps.

    Walker maps that are signed permutations join the Neighbor steps in
    one SignedPermutation; the others become WalkerMaps segments.  Maps
    on different walkers commute, so a product's permutation factors
    join the open permutation when there is one and start the next one
    otherwise.
    """
    segments: list = []
    ops: list = []          # the open permutation: walker products and _NEIGHBOR
    products = _walker_products(steps, layout)
    for i, product in enumerate(products):
        perms, general = [], []
        for particle, m in sorted(product.items()):
            perm = _as_signed_permutation(m)
            if perm is None:
                general.append((particle, _operand(m)))
            else:
                perms.append((particle, perm))
        if perms and (ops or not general):
            ops.append(tuple(perms))
            perms = []
        if general:
            if ops:
                segments.append(_signed_permutation(layout, tuple(ops)))
                ops = []
            segments.append(WalkerMaps(tuple(general)))
        if perms:
            ops.append(tuple(perms))
        if i < len(products) - 1:
            ops.append(_NEIGHBOR)
    if ops:
        segments.append(_signed_permutation(layout, tuple(ops)))
    return segments


@lru_cache(maxsize=32)
def _signed_permutation(layout: Layout, ops: tuple) -> SignedPermutation:
    """Fold walker permutations and Neighbor steps into one gather table.

    The ops run once on the probe vector 1..dim, on the engine's kernels:
    walker permutations as +/-1 float64 maps, Neighbor steps as negations
    masked by ``engine.neighbor_parity``.  Each output entry is then
    +/-(1 + the index it gathers), exactly, as every value is an integer.
    """
    probe = StateVector(layout, np.arange(1, layout.dim + 1, dtype=complex))
    scratch = np.empty_like(probe.amps)
    for op in ops:
        if op == _NEIGHBOR:
            np.negative(probe.amps, out=probe.amps, where=engine.neighbor_parity(layout))
            continue
        maps = [(p, np.eye(8)[list(src)] * np.array(sign)[:, None]) for p, (src, sign) in op]
        scratch = engine.apply_walker_maps(probe, maps, scratch)
    values = probe.amps.real
    return SignedPermutation(np.abs(values).astype(np.int32) - 1, np.sign(values).astype(np.int8))


# -------------------------------------------------------------- executors

@dataclass
class _Policy:
    """Measurement policy of one run."""

    rng: Optional[np.random.Generator] = None
    forced: Optional[dict] = None
    all_branches: bool = False

    def measure(self, step: MeasureCoin, parents: list) -> list:
        """Children of every parent, in order, each with the walker's coin
        reset.  Each parent is taken off ``parents`` and collapsed in
        place: its last child takes its array."""
        children = []
        while parents:
            br = parents.pop(0)
            results = engine.measure_coin(br.state, step.particle, rng=self.rng,
                                          forced=(self.forced or {}).get(step.tag),
                                          both_branches=self.all_branches)
            for bit, post, prob in results if self.all_branches else [results]:
                children.append(Branch(post, br.probability * prob,
                                       {**br.outcomes, step.tag: bit}))
        return [b for b in children if not self.all_branches or b.probability > BRANCH_TOL]


def run_program(state: StateVector, program: WalkProgram, *,
                rng: Optional[np.random.Generator] = None,
                forced: Optional[dict] = None,
                all_branches: bool = False) -> list:
    """Execute a program, returning the list of surviving branches.

    Measurement policy is one of: seeded (``rng``), ``forced`` (tag ->
    bit), or ``all_branches`` (branch summing; branches of probability
    at most ``BRANCH_TOL`` are pruned).  Errors are applied to ``state``
    before the call.

    The program runs on the slice of the state's ``engine.support`` for
    the walkers it acts on: the other walkers are parked at b = 0 for the
    whole run, and every branch is extended back to the input's layout.
    When the program acts on every walker the input is copied once instead.
    The run is compiled (see ``compile_program``).  Between two barriers
    every array segment writes one scratch buffer, which the branches
    pass along; it is dropped at each barrier, so it is not held while
    measurements multiply the branches, and the next segment or run can
    take it again from ``engine.empty_amps``, as it takes the start copy.
    Every branch array belongs to the run: measurements collapse and
    reset in place.
    """
    layout = state.layout
    keep = engine.support(state, program.walkers)
    sliced = len(keep) < len(layout.particles)
    start = engine.take_slice(state, keep) if sliced else state.copy()
    segments = compile_program(program, start.layout)
    policy = _Policy(rng, forced, all_branches)
    branches = [Branch(start)]
    scratch = None
    for seg in segments:
        if isinstance(seg, (WalkerMaps, SignedPermutation)):
            if scratch is None:
                scratch = engine.empty_amps(start.layout.dim)
            for br in branches:
                scratch = seg.apply(br.state, scratch)
        else:
            scratch = None
            branches = policy.measure(seg, branches)
    if sliced:
        for br in branches:
            br.state = engine.extend(layout, keep, br.state.amps)
    return branches


def run_unitary(state: StateVector, program: WalkProgram) -> StateVector:
    """Run a measurement-free program as a plain unitary map."""
    if program.has_measurements:
        raise ValueError(f"program {program.name!r} contains measurements")
    return run_program(state, program)[0].state


def _walk_iterations(spec: CoinSpec, count: int, with_neighbor: bool) -> list:
    steps = []
    for _ in range(count):
        if not spec.is_identity():
            steps.append(Coin(spec))
        steps.append(Shift())
        if with_neighbor:
            steps.append(Neighbor())
    return steps


def _ancilla_kick_spec(vertices: Sequence[str]) -> CoinSpec:
    return CoinSpec({(p, label): COIN_X for p in ANCILLA_PARTICLES for label in vertices})


# Ancilla coin patterns for the three syndrome steps.  Which stabilizer a
# pattern picks up depends on the data walkers' shift offset at the time:
# the ZZI pattern reads correctly on unshifted data, the ZIZ pattern on
# data shifted by two, and the ZZZ pattern at any even offset.
_KICK_ZZ = ("10", "11")   # s0/s2 step
_KICK_ZY = ("11", "01")   # s1/s3 step
_KICK_XX = ("10", "01")   # s4/s5 step (after basis transform) and gauge reads

# Syndrome pair -> (the tags P1 and P3 record, the ancilla kick pattern).
SYNDROME_PAIRS = {
    "s0s2": (("s0", "s2"), _KICK_ZZ),
    "s1s3": (("s1", "s3"), _KICK_ZY),
    "s4s5": (("s4", "s5"), _KICK_XX),
}


def _kickback_read(kick: Sequence[str], tag1: str, tag3: str) -> list:
    """One phase-kickback read: H on the P1 and P3 coins, six walk
    iterations with the ancillas' coins kicked at ``kick``, H again, then
    P1 measured into ``tag1`` and P3 into ``tag3``, each coin reset."""
    brackets = [Coin(CoinSpec.uniform((p,), COIN_H)) for p in (P1, P3)]
    return (brackets + _walk_iterations(_ancilla_kick_spec(kick), 6, True) + brackets
            + [MeasureCoin(P1, tag1), MeasureCoin(P3, tag3)])


@lru_cache(maxsize=None)
def build_syndrome_step(pair: str, start_shift: int = 0) -> WalkProgram:
    """One phase-kickback read of a pair of generators.

    ``pair`` is "s0s2", "s1s3" or "s4s5".  P1 records the first generator
    of the pair and P3 the second.  The s4/s5 step wraps the six
    iterations in the coin-basis transform (with neighbor interactions
    structurally absent inside the transform); because those six
    iterations displace the data walkers by two, the closing transform is
    compiled in the shifted frame.  ``start_shift`` is the data walkers'
    displacement when the step begins, relevant only for s4/s5.
    """
    if pair not in SYNDROME_PAIRS:
        raise ValueError(f"unknown syndrome pair {pair!r}")
    tags, kick = SYNDROME_PAIRS[pair]
    steps = _kickback_read(kick, *tags)
    if pair == "s4s5":
        opening = build_basis_transform(DATA_PARTICLES, frame=start_shift)
        closing = build_basis_transform(DATA_PARTICLES, frame=start_shift + 2)
        steps = list(opening.steps) + steps + list(closing.steps)
    return WalkProgram(f"syndrome[{pair}]", tuple(steps))


# Vertex-dependent coin patterns of the three special transform stages.
_TRANSFORM_STAGES = (
    {"00": COIN_H, "10": COIN_HP, "11": COIN_H, "01": COIN_HP},
    {"00": COIN_H, "10": COIN_HP, "11": COIN_HP, "01": COIN_H},
    {"00": COIN_H, "10": COIN_H, "11": COIN_HP, "01": COIN_HP},
)
# Iterations (1-indexed, coin before shift) that carry the three stages.
# Placing them at 3, 4, 5 does not reproduce the XXX<->ZZZ swap; an
# exhaustive schedule search shows 3, 4, 6 is the placement that makes the
# transform an exact intertwiner (and an involution).  When the walkers
# enter the transform shifted by two, the whole pattern fires two
# iterations later (5, 6, 8), which compiles Sigma^2 W Sigma^-2 exactly.
_TRANSFORM_SLOTS = {0: (3, 4, 6), 2: (5, 6, 8)}


def _transform_coin_spec(targets: Iterable[int], stage: int) -> CoinSpec:
    return CoinSpec({(p, label): u for p in targets
                     for label, u in _TRANSFORM_STAGES[stage].items()})


def build_basis_transform(targets: Iterable[int], frame: int = 0) -> WalkProgram:
    """Eight coin+shift iterations swapping XXX and ZZZ eigenstates.

    No Neighbor steps appear; three iterations carry the vertex-dependent
    H / H' coins on each target walker, the rest are bare shifts.  The
    compiled transform W satisfies W XXX = ZZZ W, W ZZZ = XXX W and
    W^2 = 1 exactly on each target walker.  ``frame`` is the walkers'
    shift offset (0 or 2) at program start; the offset-2 compile is the
    same transform conjugated into the co-moving frame.  Cached by
    ``tuple(targets)`` and ``frame``.
    """
    return _basis_transform(tuple(targets), frame)


@lru_cache(maxsize=None)
def _basis_transform(targets: tuple, frame: int) -> WalkProgram:
    bad = set(targets) - set(DATA_PARTICLES)
    if bad:
        raise ValueError(f"transform targets must be data walkers, got {sorted(bad)}")
    slots = _TRANSFORM_SLOTS.get(frame % 4)
    if slots is None:
        raise ValueError(f"transform frame must be an even offset, got {frame}")
    steps: list = []
    for iteration in range(1, 9):
        if targets and iteration in slots:
            stage = slots.index(iteration)
            steps.append(Coin(_transform_coin_spec(targets, stage)))
        steps.append(Shift())
    suffix = "" if frame % 4 == 0 else "@+2"
    return WalkProgram(f"basis-transform{list(targets)}{suffix}", tuple(steps))


@lru_cache(maxsize=None)
def build_full_cycle(cycle_parity: int) -> WalkProgram:
    """One syndrome cycle: all six generators, order set by the parity.

    Even cycles run (s0,s2), (s1,s3), (s4,s5); odd cycles swap the first
    two because the previous cycle's s4/s5 step left the data walkers
    shifted by two.  No explicit re-shifting appears; the offsets are
    produced and consumed by the six-iteration blocks themselves.
    """
    even = cycle_parity % 2 == 0
    order = ["s0s2", "s1s3", "s4s5"] if even else ["s1s3", "s0s2", "s4s5"]
    steps: list = []
    for pair in order:
        # Even cycles reach s4/s5 with the walkers home; odd cycles reach
        # it displaced by two (each six-iteration block adds two).
        start_shift = 0 if (even or pair != "s4s5") else 2
        steps.extend(build_syndrome_step(pair, start_shift=start_shift).steps)
    return WalkProgram(f"cycle[parity={cycle_parity % 2}]", tuple(steps))


@lru_cache(maxsize=None)
def build_cnot_coin_to_logical() -> WalkProgram:
    """Coin-controlled logical flip: transform, interact, transform.

    The middle eight iterations keep the data coins flipping every step
    (X on every vertex) while the external walker's coin-1 branch tours
    its square and tallies -1s against P4; bracketing with the P4 basis
    transform turns the accumulated controlled-ZZZ into controlled-XXX,
    i.e. a CNOT from the external coin onto the logical qubit.
    """
    transform = build_basis_transform((4,)).steps
    steps = transform + build_interaction_block().steps + transform
    return WalkProgram("cnot[coin->logical]", steps)


@lru_cache(maxsize=None)
def build_interaction_block() -> WalkProgram:
    """The CNOT's middle eight iterations: X on every data coin at every
    vertex, then a shift and a neighbor step.  On the external coin's
    1 branch this is controlled-(Zc Zy Zx) on P4."""
    data_x = CoinSpec.uniform(DATA_PARTICLES, COIN_X)
    return WalkProgram("interaction", tuple(_walk_iterations(data_x, 8, True)))


@lru_cache(maxsize=None)
def build_cphase() -> WalkProgram:
    """The CNOT block enclosed in Hadamards on the external coin and the
    transversal data coins."""
    h_bracket = [Coin(CoinSpec.uniform((PEX,), COIN_H)),
                 Coin(CoinSpec.uniform(DATA_PARTICLES, COIN_H))]
    cnot = build_cnot_coin_to_logical()
    steps = h_bracket + list(cnot.steps) + h_bracket
    return WalkProgram("cphase[logical-ctrl]", tuple(steps))


@lru_cache(maxsize=None)
def build_encode() -> WalkProgram:
    """The encoder after the input coin: the CNOT, then H on the external
    coin, and its measurement ("encode"), which re-parks it at coin 0."""
    steps = (Coin(CoinSpec.uniform((PEX,), COIN_H)), MeasureCoin(PEX, "encode"))
    return WalkProgram("encode", build_cnot_coin_to_logical().steps + steps)


def _gauge_read(tag: str) -> list:
    """The gauge reads' kickback read between a pre and a post shift,
    recording ``tag``:p1 and ``tag``:p3."""
    return [Shift(), *_kickback_read(_KICK_XX, f"{tag}:p1", f"{tag}:p3"), Shift()]


@lru_cache(maxsize=None)
def build_gauge_zz_measurement() -> WalkProgram:
    """Read the Z-type gauge product via a pre/post shift and six iterations.

    P1 records (IZZ)_P0 (IZZ)_P2, P3 records (IZZ)_P2 (IZZ)_P4; the
    product of the two outcomes is the (gZ0 gZ1 s0 s1)-type eigenvalue
    read.  The closing Shift returns the data walkers to where they began.
    """
    return WalkProgram("gauge-zz", tuple(_gauge_read("gzz")))


@lru_cache(maxsize=None)
def build_gauge_xx_measurement() -> WalkProgram:
    """Same as the ZZ gauge read, enclosed by the three-walker transform."""
    transform = list(build_basis_transform(DATA_PARTICLES).steps)
    return WalkProgram("gauge-xx", tuple(transform + _gauge_read("gxx") + transform))


@lru_cache(maxsize=None)
def build_gauge_measurement() -> WalkProgram:
    """The ZZ gauge read, then the XX one: tags gzz:p1/p3 and gxx:p1/p3."""
    steps = build_gauge_zz_measurement().steps + build_gauge_xx_measurement().steps
    return WalkProgram("gauge", steps)


LOGICAL_COIN_OPS = {
    "H": COIN_H,
    "S": COIN_Z @ COIN_S,
    "Z": COIN_Z,
}


@lru_cache(maxsize=None)
def build_logical_clifford(gate: str) -> WalkProgram:
    """Single transversal coin step on the data walkers: H, Z*S, or Z."""
    u = LOGICAL_COIN_OPS.get(gate)
    if u is None:
        raise ValueError(f"unknown logical coin gate {gate!r}; pick from H, S, Z")
    spec = CoinSpec.uniform(DATA_PARTICLES, u)
    return WalkProgram(f"logical[{gate}]", (Coin(spec),))


T_THETA = np.pi / 8   # the T gate's external coin phase exp(-i T_THETA Zc)


@lru_cache(maxsize=None)
def build_logical_t() -> WalkProgram:
    """The coin phase on the parked external walker between two CPhase
    walks.  The CPhase squares to 1 and conjugates Zc_pex into Zc_pex x D,
    so this is exp(-i pi/8 Zc_pex x D): exp(-i pi/8 D) on the data."""
    t_coin = Coin(CoinSpec.uniform((PEX,), np.diag(np.exp([-1j * T_THETA, 1j * T_THETA]))))
    return WalkProgram("logical[T]", build_cphase().steps + (t_coin,) + build_cphase().steps)
