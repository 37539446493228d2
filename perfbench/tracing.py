"""Span tracing of walkqec's public functions, installed from outside.

The tracer replaces each traced function with a wrapper in every walkqec
module that holds a reference to it, so calls made through a by-name
import (``from .pauli import pw_mul`` in codec and cli, ``from .programs
import run_unitary`` in oracle) and through module globals inside the
defining module (``expectation`` -> ``apply_pauli_word``) are all seen.
Nothing in ``src/`` is edited; the originals are restored on exit.

A span is ``[name, start, end, parent, op]``; spans stay in memory and are
written once, at the end.  A span's self time is its duration minus the
durations of its direct children (calls are nested and single-threaded,
so children never overlap).

Deterministic counters are derived from call arguments and results, never
from clocks, so two runs over the same inputs give identical values.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from walkqec import cli, codec, engine, errors, oracle, pauli, programs

MODULES = {"engine": engine, "programs": programs, "codec": codec, "errors": errors,
           "pauli": pauli, "oracle": oracle, "cli": cli}

ENGINE_OPS = ("apply_coin", "apply_local_coin", "apply_shift", "apply_neighbor",
              "apply_particle_unitary", "apply_pauli_word", "expectation",
              "measure_coin", "project_pauli")
CODEC_FNS = ("encoded_session", "run_cycle", "update_frame", "logical_readout",
             "apply_logical_gate", "inject_error")
PAULI_FNS = ("decode_lookup", "commutes", "pw_mul", "conjugate_transversal")

TRACED = (
    [("engine", f) for f in ENGINE_OPS]
    + [("programs", "run_program")]
    + [("codec", f) for f in CODEC_FNS]
    + [("errors", "inject")]
    + [("pauli", f) for f in PAULI_FNS]
    + [("oracle", "extract_unitary"), ("oracle", "program_matrix_on_particle")]
    + [("cli", "main")]
)

# Computed amplitude traffic per engine call, in eighths of one pass over
# the state (one pass = dim complex128 values read or written = 16 * dim
# bytes).  The model charges what each call's contract requires: a
# full-array read plus write is 2 passes (16 eighths); a coin entry at one
# vertex reads and writes the two coin components there (4 eighths); a
# copy made because ``inplace`` is false adds 2 passes.  Index and
# diagonal tables are not counted, and neither are cache effects.
_COPY = 16


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _engine_eighths(op: str, args, kwargs, result) -> int:
    inplace = kwargs.get("inplace", False)
    if op == "apply_coin":
        return 4 * len(_arg(args, kwargs, 1, "spec").entries) + (0 if inplace else _COPY)
    if op == "apply_local_coin":
        return 16 + (0 if inplace else _COPY)
    if op in ("apply_shift", "apply_neighbor", "apply_particle_unitary", "apply_pauli_word"):
        return 16
    if op == "expectation":
        return 16           # inner product of the state with the word's image
    if op == "measure_coin":
        collapsed = len(result) if kwargs.get("both_branches") else 1
        return 4 + 16 * collapsed   # coin-one marginal, then one collapse per branch
    if op == "project_pauli":
        return 48           # combine (3 passes), norm (1), normalize (2)
    raise KeyError(op)


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = -1
        self.eighths_by_dim: Counter = Counter()
        self.readouts = 0
        self.readout_terms = 0
        self._program_runs: list = []

    def _wrap(self, module: str, fname: str, fn):
        name = f"{module}.{fname}"
        spans, stack = self.spans, self._stack
        if module == "engine":
            def after(args, kwargs, result):
                dim = _arg(args, kwargs, 0, "state").layout.dim
                self.eighths_by_dim[dim] += _engine_eighths(fname, args, kwargs, result)
        elif name == "programs.run_program":
            def after(args, kwargs, result):
                outcomes = [br.outcomes for br in result]
                self._program_runs.append((_arg(args, kwargs, 1, "program"),
                                           bool(kwargs.get("all_branches")), outcomes))
        elif name == "codec.logical_readout":
            def after(args, kwargs, result):
                axes = _arg(args, kwargs, 0, "session").axes.axes
                self.readouts += 1
                self.readout_terms += sum(len(terms) for terms in axes.values())
        else:
            after = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every walkqec module attribute bound to a traced function."""
        patched = []
        try:
            for module, fname in TRACED:
                original = getattr(MODULES[module], fname)
                wrapped = self._wrap(module, fname, original)
                for mod in MODULES.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    # ------------------------------------------------------------ summaries

    def self_times(self) -> dict:
        """name -> (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def program_counters(self) -> dict:
        """Step applications, branches returned and branch yield of run_program.

        Live branches at each step are recovered from the surviving
        branches' outcome records: after a measurement, the live count is
        the number of distinct outcome prefixes up to that measurement.
        """
        steps = out = kept = attempted = 0
        for program, all_branches, outcomes in self._program_runs:
            live, tags = 1, []
            for step in program.steps:
                steps += live
                if isinstance(step, programs.MeasureCoin):
                    attempted += live * (2 if all_branches else 1)
                    tags.append(step.tag)
                    live = len({tuple(o.get(t) for t in tags) for o in outcomes})
                    kept += live
            out += len(outcomes)
        return {"step_applications": steps, "branches_out": out,
                "branch_yield": kept / attempted if attempted else 0.0}

    def bytes_computed(self) -> int:
        return sum(2 * dim * eighths for dim, eighths in self.eighths_by_dim.items())

    def counters(self) -> dict:
        """Every deterministic counter, keyed by its metric name."""
        out = {f"{name}.calls": calls for name, (calls, _) in self.self_times().items()}
        out["engine.bytes_computed"] = self.bytes_computed()
        out.update({f"programs.{k}": v for k, v in self.program_counters().items()})
        out["codec.readout_terms"] = self.readout_terms / self.readouts if self.readouts else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
