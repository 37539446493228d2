"""Workload inputs, operations and correctness checks for the benchmark.

Every op's inputs come from ``np.random.default_rng([seed, workload
index, op index])`` and are built before timing starts; the program only
ever receives those inputs.  Each op returns its physics outputs so a
traced run can be compared bit for bit with an untraced one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from walkqec import cli, codec, engine, errors, oracle, programs

FIDELITY_FLOOR = 1 - 1e-8       # campaign: every branch, frame-adjusted
BLOCH_TOLERANCE = 1e-8          # gates_six: deviation from the ideal 2x2 map
MASS_TOLERANCE = 1e-9           # campaign: branch probabilities sum to one

# Family and target cycle round-robin so every six consecutive trials
# cover coin and shift errors on P0, P2 and P4 once each.  Timed runs end
# on a whole cycle, so every run measures the same mix.
CAMPAIGN_CELLS = tuple((family, target) for target in (0, 2, 4)
                       for family in ("coin", "shift"))
# Five T-bearing words and three Clifford-only ones, cycled in order.
GATE_WORDS = ("T", "H", "H T", "S", "T T H", "H S Z", "H S T", "S T T")


@dataclass(frozen=True)
class Workload:
    name: str
    index: int          # second entry of every op's rng key
    layout: engine.Layout
    pool: int           # distinct inputs generated; a run cycles through them
    block: int          # a timed run ends on a multiple of this op count
    traced_ops: int     # fixed op count of the traced run, so counters repeat
    op_name: str        # what one op is, for the workload's tail-latency name
    named: tuple        # (report name, end-to-end metric, scale) per alias


WORKLOADS = {
    w.name: w for w in (
        Workload("campaign", 0, engine.FIVE, 3000, len(CAMPAIGN_CELLS), 60, "trial",
                 (("trials_per_s", "ops_per_s", 1), ("trial_p50_ms", "op_p50_ms", 1),
                  ("cycle_p50_ms", "core_p50_ms", 1))),
        Workload("gates_six", 1, engine.SIX, 400, len(GATE_WORDS), 16, "word",
                 (("words_per_s", "ops_per_s", 1), ("word_p50_ms", "op_p50_ms", 1),
                  ("gate_word_p50_ms", "core_p50_ms", 1))),
        Workload("identities", 2, engine.SIX, 40, 1, 2, "suite",
                 (("identities_s", "op_p50_ms", 1e-3),)),
    )
}


def _bloch_amplitudes(rng: np.random.Generator) -> tuple:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    theta = np.arccos(np.clip(v[2], -1, 1))
    phi = np.arctan2(v[1], v[0])
    return complex(np.cos(theta / 2)), complex(np.exp(1j * phi) * np.sin(theta / 2))


def _bloch_of(alpha: complex, beta: complex) -> tuple:
    ab = np.conj(alpha) * beta
    return (float(2 * ab.real), float(2 * ab.imag), float(abs(alpha) ** 2 - abs(beta) ** 2))


def make_inputs(workload: Workload, seed: int, count: int) -> list:
    """Inputs of ops 0..count-1 of a workload, one fresh generator per op."""
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, workload.index, i])
        if workload.name == "campaign":
            family, target = CAMPAIGN_CELLS[i % len(CAMPAIGN_CELLS)]
            alpha, beta = _bloch_amplitudes(rng)
            out.append((alpha, beta, errors.sample_random_error(rng, family, target)))
        elif workload.name == "gates_six":
            alpha, beta = _bloch_amplitudes(rng)
            out.append((alpha, beta, GATE_WORDS[i % len(GATE_WORDS)]))
        else:
            # The suite is fixed; only the seed recorded in its report varies.
            out.append(["--seed", str(int(rng.integers(2 ** 31))), "verify-identities"])
    return out


def _describe(item) -> object:
    if isinstance(item, complex):
        return [item.real, item.imag]
    if isinstance(item, (tuple, list)):
        return [_describe(x) for x in item]
    if isinstance(item, (errors.CoinError, errors.ShiftError)):
        return errors.to_json(item)
    return item


def digest(obj) -> str:
    """sha256 of a canonical JSON form; floats keep every digit."""
    text = json.dumps(_describe(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------------ ops
# Each op returns (ok, score, outputs, core_seconds).  ``score`` is the
# campaign's worst branch fidelity, the gate word's Bloch deviation, or
# the suite's maximum identity deviation.

def campaign_op(inp) -> tuple:
    alpha, beta, spec = inp
    want = _bloch_of(alpha, beta)
    ses = codec.encoded_session(alpha, beta, layout=engine.FIVE)
    codec.inject_error(ses, spec)
    t0 = perf_counter()
    branches = codec.run_cycle(ses, all_branches=True)
    core = perf_counter() - t0
    outputs, worst = [], 1.0
    for prob, branch in branches:
        codec.update_frame(branch)
        bloch = codec.logical_readout(branch).bloch
        worst = min(worst, codec.bloch_fidelity(want, bloch))
        outputs.append([prob, list(branch.history.cycles[-1].raw),
                        branch.frame.word.render(), list(bloch)])
    mass = sum(prob for prob, _ in branches)
    ok = worst >= FIDELITY_FLOOR and abs(mass - 1.0) <= MASS_TOLERANCE
    return ok, worst, outputs, core


def gates_six_op(inp) -> tuple:
    alpha, beta, word = inp
    ses = codec.encoded_session(alpha, beta, layout=engine.SIX)
    t0 = perf_counter()
    codec.apply_word(ses, word)
    core = perf_counter() - t0
    got = codec.logical_readout(ses).bloch
    want = codec.ideal_bloch_map(word, _bloch_of(alpha, beta))
    dev = max(abs(g - w) for g, w in zip(got, want))
    return dev < BLOCH_TOLERANCE, dev, list(got), core


def identities_op(argv) -> tuple:
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    core = perf_counter() - t0
    report = json.loads(buf.getvalue())
    ok = code == 0 and report["summary"]["pass"] is True
    outputs = [[r["identity"], r["deviation"], r["pass"]] for r in report["results"]]
    return ok, report["summary"]["max_deviation"], outputs, core


OPS = {"campaign": campaign_op, "gates_six": gates_six_op, "identities": identities_op}


def warm_up(workload: Workload) -> None:
    """The once-per-process cost: the prepared |0>_L, the compiled
    programs, and one pass of each program to build the engine's index
    caches for the workload's layout."""
    if workload.name == "campaign":
        ses = codec.encoded_session(1.0, 0.0, layout=engine.FIVE)
        for _, branch in codec.run_cycle(ses, all_branches=True):
            codec.update_frame(branch)
            codec.logical_readout(branch)
    elif workload.name == "gates_six":
        ses = codec.encoded_session(1.0, 0.0, layout=engine.SIX)
        codec.apply_word(ses, "H S Z T")
        codec.logical_readout(ses)
    else:
        zero = codec.prepare_logical_zero(engine.SIX).state
        programs.run_unitary(zero, programs.build_cphase())
        oracle.program_matrix_on_particle(programs.build_basis_transform((0,)),
                                          engine.Layout(1, False), 0)
