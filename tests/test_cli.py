"""CLI behaviour and exit codes."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import mbc
from mbc import cli
from mbc.cli import main
from mbc.containers import Stack
from mbc.contracts import REGISTRY


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_unknown_target_is_2(self, capsys):
        code, _, err = run(capsys, "test", "--target", "Nope", "--calls", "10")
        assert code == 2
        assert "unknown target" in err

    def test_missing_target_is_2(self, capsys):
        code, _, _ = run(capsys, "complete")
        assert code == 2

    def test_unknown_fault_is_2(self, capsys):
        code, _, _ = run(capsys, "test", "--target", "Stack",
                         "--calls", "10", "--inject", "no_such_fault")
        assert code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["adequacy", "--target", "Queue", "--depth", "-1"], "--depth"),
        (["complete", "--target", "Stack", "--max-size", "-1"], "--max-size"),
        (["complete", "--target", "Stack", "--universe", "0"], "--universe"),
        (["test", "--target", "Stack", "--calls", "-1"], "--calls"),
        (["report", "--target", "Stack", "--depth", "-2"], "--depth"),
        (["report", "--target", "Stack", "--calls", "-5"], "--calls"),
    ])
    def test_bound_out_of_range_is_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"argument {flag}: must be at least" in err

    @pytest.mark.parametrize("universe", ["27", "1114100"])
    def test_universe_past_z_is_2(self, capsys, universe):
        # Token 27 would be "{", which state texts use as a brace.
        code, out, err = run(capsys, "complete", "--target", "Collection",
                             "--universe", universe, "--max-size", "0")
        assert code == 2 and out == ""
        assert "argument --universe: must be at most 26" in err

    def test_greatest_universe_is_accepted(self, capsys):
        code, out, _ = run(capsys, "complete", "--target", "Collection",
                           "--universe", "26", "--max-size", "0")
        assert code == 0 and json.loads(out)

    @pytest.mark.parametrize("argv", [
        ["adequacy", "--target", "Queue", "--depth", "0"],
        ["complete", "--target", "Stack", "--max-size", "0"],
        ["complete", "--target", "Stack", "--universe", "1"],
        ["test", "--target", "Stack", "--calls", "0"],
    ])
    def test_least_bound_is_accepted(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1) and json.loads(out)

    @pytest.mark.parametrize("name", ["__class__", "__eq__", "faults", ""])
    def test_inject_takes_only_fault_switches(self, capsys, name):
        code, out, err = run(capsys, "test", "--target", "Stack",
                             "--calls", "10", "--inject", name)
        assert code == 2 and out == ""
        assert "invalid choice" in err

    def test_refused_enumeration_is_2(self, capsys):
        code, _, err = run(capsys, "complete", "--target", "Collection",
                           "--universe", "26", "--max-size", "40")
        assert code == 2
        assert "refused" in err

    @pytest.mark.parametrize("max_size", ["20000", "1000000000"])
    def test_huge_max_size_refused_quickly(self, capsys, max_size):
        start = time.perf_counter()
        code, out, err = run(capsys, "complete", "--all",
                             "--max-size", max_size)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("refused:") and len(err) < 200

    def test_long_traces_refused_quickly(self, capsys):
        # Few states, but each rebuilt from a trace of up to 3001 steps.
        start = time.perf_counter()
        code, out, err = run(capsys, "complete", "--target", "Stack",
                             "--universe", "1", "--max-size", "3000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("refused: estimated trace steps")

    @pytest.mark.parametrize("argv", [
        ["complete", "--target", "Stack"],
        ["test", "--target", "Stack", "--calls", "10"],
    ])
    def test_unwritable_out_is_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write") and str(path) in err
        assert not path.exists()

    def test_clean_run_is_0(self, capsys):
        code, out, _ = run(capsys, "test", "--target", "Stack",
                           "--calls", "300", "--seed", "5")
        assert code == 0
        assert json.loads(out.splitlines()[0])["stats"]["violations"] == 0

    @pytest.mark.parametrize("argv", [
        ["complete", "--max-size", "2"],
        ["adequacy", "--max-size", "2"],
        ["test", "--calls", "200", "--seed", "3"],
    ])
    def test_repeated_target_counts_once(self, capsys, argv):
        once = run(capsys, *argv, "--target", "Dispenser",
                   "--target", "Stack")
        repeated = run(capsys, *argv, "--target", "Dispenser",
                       "--target", "Stack", "--target", "Dispenser")
        assert repeated == once

    def test_workers_flag_is_gone_2(self, capsys):
        code, _, err = run(capsys, "test", "--target", "Stack",
                           "--calls", "10", "--workers", "2")
        assert code == 2
        assert "--workers" in err

    def test_violations_are_1(self, capsys):
        code, out, _ = run(capsys, "test", "--target", "LinkedList",
                           "--calls", "10000", "--seed", "0",
                           "--inject", "merge_right_missing_link")
        assert code == 1
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["stats"]["violations"] == len(lines) - 1

    def test_unconfirmed_violation_is_1(self, capsys, monkeypatch):
        # Every Stack shares one list, so a violation the campaign sees is
        # one that replay of its trace cannot reproduce.
        shared = []

        def make_empty(faults=None):
            s = Stack(faults=faults)
            s.items = shared
            return s

        monkeypatch.setattr(REGISTRY["Stack"].feature("make_empty"),
                            "body", make_empty)
        code, out, err = run(capsys, "test", "--target", "Stack",
                             "--calls", "2000", "--seed", "0")
        assert code == 1
        assert out == ""
        assert err == (
            "unconfirmed: fault report failed self-validation: "
            "is_empty/purity:target: the Stack target's own trace of 2 steps "
            "does not reproduce the violation (replay gives make_empty/sequence); "
            "either the object changed outside its own checked calls, or its "
            "implementation is not deterministic\n")


class TestSubcommands:
    def test_complete_reports_json(self, capsys):
        code, out, _ = run(capsys, "complete", "--target", "Collection")
        assert code == 0
        rep = json.loads(out)
        assert rep["summary"]["errors"] == []

    def test_adequacy_reports_json(self, capsys):
        code, out, _ = run(capsys, "adequacy", "--target", "Table",
                           "--depth", "2")
        assert code == 0
        assert json.loads(out)[0]["adequate"] is True

    def test_adequacy_depth_costs_only_what_it_uses(self, capsys):
        # Shortest sequences are tried first, so a depth far past the
        # recursion limit reaches the verdict of depth 2 as quickly.
        code, out, err = run(capsys, "adequacy", "--all", "--depth", "2000")
        assert code == 0, err
        verdicts = json.loads(out)
        assert len(verdicts) == 9
        assert all(v["adequate"] and v["depth"] == 2000 for v in verdicts)

    def test_export_boogie_stdout_and_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "export-boogie")
        assert code == 0 and "type Sequence T = [int] T ;" in out
        p = tmp_path / "t.bpl"
        code, _, _ = run(capsys, "export-boogie", "--out", str(p))
        assert code == 0 and p.read_text(encoding="utf-8") == out

    def test_python_dash_m_runs_the_cli(self):
        # Import the copy of mbc under test, installed or not.
        src = str(pathlib.Path(mbc.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-m", "mbc", "export-boogie"],
                             capture_output=True, env=env, check=True).stdout
        golden = pathlib.Path(__file__).parent / "golden" / "theories.bpl"
        assert out == golden.read_bytes()

    def test_report_combined(self, capsys):
        code, out, _ = run(capsys, "report", "--target", "Collection",
                           "--calls", "300", "--seed", "1")
        assert code == 0
        rep = json.loads(out)
        assert set(rep) == {"completeness", "adequacy", "testing"}

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MBC_SEED", "77")
        from mbc.cli import build_parser
        args = build_parser().parse_args(["test", "--target", "Stack"])
        # Parser defaults are bound at build time, so rebuild under the env.
        assert args.seed == 77

    def test_malformed_seed_env_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MBC_SEED", "abc")
        code, _, err = run(capsys, "test", "--target", "Stack", "--calls", "10")
        assert code == 2
        assert "invalid int value" in err
        # An explicit --seed does not read the environment.
        code, _, _ = run(capsys, "test", "--target", "Stack", "--calls", "10",
                         "--seed", "3")
        assert code == 0

    def test_parser_built_once(self, capsys, monkeypatch):
        monkeypatch.delenv("MBC_SEED", raising=False)
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or build())
        cli._parser.cache_clear()
        for seed in ("1", "2", "3"):
            code, out, _ = run(capsys, "test", "--target", "Stack",
                               "--calls", "50", "--seed", seed)
            assert code == 0 and out
        assert built == [1]

    def test_seed_env_read_on_every_call(self, capsys, monkeypatch):
        argv = ["test", "--all", "--calls", "300"]
        outs = {}
        for seed in ("77", "78"):
            monkeypatch.setenv("MBC_SEED", seed)
            outs[seed] = run(capsys, *argv)
        monkeypatch.delenv("MBC_SEED")
        for seed, got in outs.items():
            assert got == run(capsys, *argv, "--seed", seed)
        assert outs["77"] != outs["78"]

    def test_inject_does_not_carry_over(self, capsys):
        argv = ["test", "--target", "LinkedList", "--calls", "3000",
                "--seed", "0"]
        code, _, _ = run(capsys, *argv, "--inject", "merge_right_missing_link")
        assert code == 1
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["stats"]["violations"] == 0

    def test_out_flag_writes_file(self, capsys, tmp_path):
        p = tmp_path / "r.jsonl"
        code, out, _ = run(capsys, "test", "--target", "Stack",
                           "--calls", "200", "--seed", "2", "--out", str(p))
        assert code == 0 and out == ""
        assert json.loads(p.read_text().splitlines()[0])["stats"]["calls"] == 200
