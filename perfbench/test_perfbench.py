"""The benchmark's own checks: seeded inputs, repeatable counters,
transparent tracing, and refusal to run without the sources.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

# Small op sets that still reach every traced layer of each workload.
SMALL = {"campaign": 6, "gates_six": 3, "identities": 1}


def _digest_in_fresh_interpreter(hash_seed: str) -> str:
    code = ("import workloads as w; "
            "print(w.digest(w.make_inputs(w.WORKLOADS['campaign'], 7, 12)))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS.values():
        a = workloads.digest(workloads.make_inputs(w, 7, 12))
        assert a == workloads.digest(workloads.make_inputs(w, 7, 12))
        if w.name != "identities":
            assert a != workloads.digest(workloads.make_inputs(w, 8, 12))
    assert _digest_in_fresh_interpreter("1") == _digest_in_fresh_interpreter("2")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counters_repeat_and_tracing_is_transparent(name):
    w = workloads.WORKLOADS[name]
    first = run.traced(w, 5, SMALL[name])
    second = run.traced(w, 5, SMALL[name])
    for records, _, detail, _ in (first, second):
        assert all(r["ok"] for r in records)
        assert detail["outputs_identical"]
    assert first[2]["input_digest"] == second[2]["input_digest"]
    assert first[2]["counters"] == second[2]["counters"]
    assert first[2]["outputs_digest"] == second[2]["outputs_digest"]
    assert first[2]["counters"]["programs.run_program.calls"] > 0


def test_spans_nest_and_self_time_is_bounded():
    w = workloads.WORKLOADS["campaign"]
    _, _, _, tracer = run.traced(w, 5, 1)
    names = {s[0] for s in tracer.spans}
    # reached through a by-name import (codec's pw_mul) and through a
    # module global inside engine (expectation -> apply_pauli_word)
    assert "pauli.pw_mul" in names
    parents = {tracer.spans[s[3]][0] for s in tracer.spans
               if s[0] == "engine.apply_pauli_word" and s[3] >= 0}
    assert "engine.expectation" in parents
    total = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    self_total = sum(t for _, t in tracer.self_times().values())
    assert self_total == pytest.approx(total, rel=1e-9)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
