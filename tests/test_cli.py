"""CLI harness: reports, determinism, exit codes."""

import csv
import io
import json
import pathlib

import pytest

from walkqec import cli, programs, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def json_part(out):
    # the sweep prints CSV then a JSON summary; locate the JSON object
    idx = out.index("{")
    return json.loads(out[idx:])


def strip_timestamp(obj):
    obj = dict(obj)
    obj.pop("timestamp", None)
    return obj


class TestVerifyTables:
    def test_passes_with_15_rows(self, capsys):
        code, out = run_cli(capsys, "verify-tables")
        report = json.loads(out)
        assert code == 0
        assert report["summary"] == {"pass": True, "rows_passed": 15, "rows_total": 15}
        row = next(r for r in report["results"]["rows"]
                   if r["error"].startswith("+1 (I I I)_{P4} (X I I)_{P2}"))
        assert row["m"] == "001111"

    def test_corrupt_mode_reports_targeted_failures(self, capsys):
        code, out = run_cli(capsys, "--seed", "1", "verify-tables", "--corrupt")
        report = json.loads(out)
        assert code == 1
        assert not report["summary"]["pass"]
        failing = [r for r in report["results"]["rows"] if not r["pass"]]
        assert failing  # the corrupted generator shows up in specific rows
        assert report["summary"]["rows_passed"] < 15


class TestErrorSweep:
    def test_small_sweep_passes(self, capsys):
        code, out = run_cli(capsys, "--seed", "7", "error-sweep",
                            "--trials", "2", "--family", "pauli", "--target", "P0")
        assert code == 0
        summary = json_part(out)
        assert summary["summary"]["pass"]
        assert summary["summary"]["count"] == 2
        assert summary["summary"]["min_fidelity"] >= 1 - 1e-8

    def test_zero_trials_header_only(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out = run_cli(capsys, "--out", str(out_file), "error-sweep", "--trials", "0")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_file.read_text())))
        assert rows == [["trial", "family", "target", "syndrome", "fidelity"]]

    def test_deterministic_output(self, capsys, tmp_path):
        files = []
        for k in range(2):
            path = tmp_path / f"sweep{k}.csv"
            code, _ = run_cli(capsys, "--seed", "5", "--out", str(path), "error-sweep",
                              "--trials", "2", "--family", "pauli", "--target", "P2")
            assert code == 0
            files.append(path.read_text())
        assert files[0] == files[1]

    def test_matches_golden_file(self, capsys, tmp_path):
        """72 branch-summed trials: coin and shift errors on P0, P2 and P4.

        ``data/error_sweep_seed5_trials12.csv`` was made at one BLAS thread,
        the count CI pins: ``np.vdot`` rounds differently at two threads
        (the report's ``min_fidelity`` moves by 3.6e-14)."""
        path = tmp_path / "sweep.csv"
        code, _ = run_cli(capsys, "--seed", "5", "--out", str(path), "error-sweep",
                          "--trials", "12")
        assert code == 0
        golden = pathlib.Path(__file__).parent / "data" / "error_sweep_seed5_trials12.csv"
        want = list(csv.DictReader(io.StringIO(golden.read_text())))
        got = list(csv.DictReader(io.StringIO(path.read_text())))
        assert len(got) == len(want) == 72
        for g, w in zip(got, want):
            assert [g[k] for k in ("trial", "family", "target", "syndrome")] == \
                [w[k] for k in ("trial", "family", "target", "syndrome")]
            assert abs(float(g["fidelity"]) - float(w["fidelity"])) <= 1e-12

    def test_monte_carlo_mode(self, capsys):
        code, out = run_cli(capsys, "--seed", "3", "error-sweep", "--trials", "2",
                            "--family", "coin", "--target", "P4", "--monte-carlo")
        assert code == 0
        assert json_part(out)["summary"]["pass"]


class TestVerifyIdentities:
    def test_all_identities_pass(self, capsys):
        code, out = run_cli(capsys, "verify-identities")
        report = json.loads(out)
        assert code == 0
        assert report["summary"]["pass"]
        assert report["summary"]["max_deviation"] < 1e-10
        names = [r["identity"] for r in report["results"]]
        assert any("basis-transform" in n for n in names)
        assert any("CNOT" in n for n in names)
        assert any("CPhase" in n for n in names)

    def test_deterministic_report(self, capsys):
        reports = []
        for _ in range(2):
            _, out = run_cli(capsys, "verify-identities")
            reports.append(strip_timestamp(json.loads(out)))
        assert reports[0] == reports[1]

    def test_wrong_program_fails_its_check(self, capsys, monkeypatch):
        # build the cached CPhase first, so it never holds the wrong CNOT;
        # then swap in a measurement-free program that is not the CNOT
        programs.build_cphase()
        monkeypatch.setattr(programs, "build_cnot_coin_to_logical",
                            lambda: programs.build_basis_transform(()))
        code, out = run_cli(capsys, "verify-identities")
        report = json.loads(out)
        assert code == 1
        cnot = next(r for r in report["results"] if "CNOT" in r["identity"])
        assert cnot["pass"] is False
        assert cnot["deviation"] >= cnot["tolerance"]
        assert not report["summary"]["pass"]


class TestLogicalGates:
    def test_default_words_pass(self, capsys):
        code, out = run_cli(capsys, "logical-gates", "--words", "H,T,T T,H H")
        report = json.loads(out)
        assert code == 0
        assert report["summary"]["pass"]
        assert report["summary"]["max_deviation"] < 1e-8

    def test_failing_word_exits_one(self, capsys, monkeypatch):
        """A deviation at the tolerance fails: the bound is strict."""
        monkeypatch.setattr(verify, "gate_word_deviation", lambda word: 1e-8)
        code, out = run_cli(capsys, "logical-gates", "--words", "T")
        report = json.loads(out)
        assert code == 1
        assert report["results"] == [{"word": "T", "max_deviation": 1e-8,
                                      "tolerance": 1e-8, "pass": False}]
        assert not report["summary"]["pass"]


class TestUsage:
    def test_missing_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_bad_choice_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["error-sweep", "--family", "cosmic"])
        assert exc.value.code == 2

    def test_tolerance_is_not_an_option(self, capsys):
        """The pass bounds are fixed, not set per run."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["--tolerance", "1e-3", "logical-gates"])
        assert exc.value.code == 2

    def test_unknown_gate_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["logical-gates", "--words", "H,X"])
        assert exc.value.code == 2
        assert "unknown logical gate 'X'; pick from H, S, Z, T" in capsys.readouterr().err

    @pytest.mark.parametrize("words", ["H,", ",T", "H, ,T", ""])
    def test_empty_gate_word_is_usage_error(self, capsys, words):
        with pytest.raises(SystemExit) as exc:
            cli.main(["logical-gates", "--words", words])
        assert exc.value.code == 2
        assert "empty gate word" in capsys.readouterr().err

    def test_negative_trials_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["error-sweep", "--trials", "-3"])
        assert exc.value.code == 2

    def test_internal_error_is_exit_3(self, capsys, monkeypatch):
        def broken():
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(verify, "check_transform", broken)
        code = cli.main(["verify-identities"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: simulated crash\n"
        assert captured.out == ""


def test_env_var_default_output_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WALKQEC_OUT_DIR", str(tmp_path / "reports"))
    code, _ = run_cli(capsys, "verify-identities")
    assert code == 0
    assert (tmp_path / "reports" / "verify_identities.json").exists()
