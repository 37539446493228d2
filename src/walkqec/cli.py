"""Batch experiment driver: table checks, sweeps, identity verification.

Every command emits a machine-readable report (JSON, or CSV for sweeps)
built from the checks in ``walkqec.verify``.  It exits 0 only if all of
its assertions pass, 1 if a check fails, 2 on a usage error (unknown
logical gates and negative trial counts included) and 3 on an internal
error.  Reports are deterministic for a fixed config apart from the
timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import codec, pauli, verify

TARGET_NAMES = {"P0": 0, "P2": 2, "P4": 4}
# Pass bound of error-sweep (fidelity >= 1 - TOLERANCE) and of logical-gates
# (Bloch deviation < TOLERANCE).
TOLERANCE = 1e-8


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit_json(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _out_path(args, default_name: str) -> str | None:
    if args.out:
        return args.out
    base = os.environ.get("WALKQEC_OUT_DIR")
    if base:
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, default_name)
    return None


# ---------------------------------------------------------------- verify-tables

def cmd_verify_tables(args) -> int:
    stabilizers = list(pauli.STABILIZERS)
    if args.corrupt:
        # fault-injection mode: damage one generator and show the report catches it
        stabilizers[2] = pauli.pw_mul(stabilizers[2], pauli.PauliWord.single(0, "c", "Z"))
    results = verify.invariant_checks()
    rows = verify.syndrome_rows(1.0, 0.0, stabilizers)
    results_pass = all(c["pass"] for c in results)
    rows_pass = all(r["pass"] for r in rows)
    report = {
        "command": "verify-tables",
        "seed": args.seed,
        "config": {"corrupt": bool(args.corrupt)},
        "timestamp": _timestamp(),
        "results": {"invariants": results, "rows": rows},
        "summary": {
            "pass": bool(results_pass and rows_pass),
            "rows_passed": sum(r["pass"] for r in rows),
            "rows_total": len(rows),
        },
    }
    _emit_json(report, _out_path(args, "verify_tables.json"))
    return 0 if report["summary"]["pass"] else 1


# ---------------------------------------------------------------- error-sweep

def cmd_error_sweep(args) -> int:
    families = [args.family] if args.family else ["coin", "shift"]
    targets = [TARGET_NAMES[args.target]] if args.target else [0, 2, 4]
    rows = []
    index = 0
    for family in families:
        for target in targets:
            for _ in range(args.trials):
                rows.append(verify.sweep_trial(args.seed, index, family, target,
                                               args.monte_carlo))
                index += 1
    fidelities = [r["fidelity"] for r in rows]
    ok = all(f >= 1 - TOLERANCE for f in fidelities)
    out_path = _out_path(args, "error_sweep.csv")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["trial", "family", "target", "syndrome", "fidelity"])
    writer.writeheader()
    for r in rows:
        writer.writerow({**r, "fidelity": f"{r['fidelity']:.12f}"})
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    summary = {
        "command": "error-sweep",
        "seed": args.seed,
        "config": {"trials": args.trials, "families": families,
                   "targets": [f"P{t}" for t in targets],
                   "monte_carlo": bool(args.monte_carlo), "tolerance": TOLERANCE},
        "timestamp": _timestamp(),
        "summary": {
            "pass": bool(ok),
            "count": len(rows),
            "min_fidelity": min(fidelities) if fidelities else None,
            "mean_fidelity": float(np.mean(fidelities)) if fidelities else None,
        },
    }
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


# ------------------------------------------------------------ verify-identities

def cmd_verify_identities(args) -> int:
    results = verify.identity_checks()
    ok = all(r["pass"] for r in results)
    report = {
        "command": "verify-identities",
        "seed": args.seed,
        "config": {},
        "timestamp": _timestamp(),
        "results": results,
        "summary": {"pass": bool(ok),
                    "max_deviation": max(r["deviation"] for r in results)},
    }
    _emit_json(report, _out_path(args, "verify_identities.json"))
    return 0 if ok else 1


# ---------------------------------------------------------------- logical-gates

GATE_WORDS = ("H", "S", "Z", "T", "H H", "T T", "S S", "H T", "T T H", "H S T")
LOGICAL_GATES = tuple(codec.LOGICAL_GATES)


def _gate_words(text: str) -> str:
    """``--words`` as given, once every word in it is a nonempty sequence
    of logical gates."""
    for word in text.split(","):
        if not word.split():
            raise argparse.ArgumentTypeError(f"empty gate word in {text!r}")
        for gate in word.split():
            if gate not in LOGICAL_GATES:
                raise argparse.ArgumentTypeError(
                    f"unknown logical gate {gate!r}; pick from {', '.join(LOGICAL_GATES)}")
    return text


def cmd_logical_gates(args) -> int:
    words = args.words.split(",") if args.words else list(GATE_WORDS)
    results = []
    for word in words:
        worst = verify.gate_word_deviation(word)
        results.append({"word": word, "max_deviation": worst,
                        "tolerance": TOLERANCE, "pass": bool(worst < TOLERANCE)})
    ok = all(r["pass"] for r in results)
    report = {
        "command": "logical-gates",
        "seed": args.seed,
        "config": {"words": words, "tolerance": TOLERANCE},
        "timestamp": _timestamp(),
        "results": results,
        "summary": {"pass": bool(ok),
                    "max_deviation": max(r["max_deviation"] for r in results)},
    }
    _emit_json(report, _out_path(args, "logical_gates.json"))
    return 0 if ok else 1


# ------------------------------------------------------------------------ main

def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative count, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkqec",
        description="Verification suite for walk-based quantum error correction")
    parser.add_argument("--seed", type=int, default=2024, help="base RNG seed")
    parser.add_argument("--out", type=str, default=None, help="output path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-tables", help="check the operator table and syndrome rows")
    p.add_argument("--corrupt", action="store_true",
                   help="fault-injection mode: corrupt a generator on purpose")
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("error-sweep", help="correctability campaign over random errors")
    p.add_argument("--trials", type=_count, default=200, help="trials per family and target")
    p.add_argument("--family", choices=["coin", "shift", "pauli"], default=None)
    p.add_argument("--target", choices=list(TARGET_NAMES), default=None)
    p.add_argument("--monte-carlo", action="store_true",
                   help="sample measurement outcomes instead of branch summing")
    p.set_defaults(func=cmd_error_sweep)

    p = sub.add_parser("verify-identities", help="operator-identity suite")
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("logical-gates", help="logical gate words vs 2x2 composition")
    p.add_argument("--words", type=_gate_words, default=None,
                   help="comma-separated gate words, e.g. 'H,T T'")
    p.set_defaults(func=cmd_logical_gates)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # report, don't traceback, for CLI users
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
