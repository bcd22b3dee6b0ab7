"""Tests of the benchmark itself, at smoke sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import client  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]
# Counts that must not change between two traced runs of one seed.
COUNTS = ("contracts.abstract_state_calls", "checkers.enumerate_calls",
          "checkers.states_checked", "model_math.values_built")


def bench(workload, trace, seed=5, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=root, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    r = result(bench(workload, trace))
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert {name: m["unit"] for name, m in r["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH[kind]}
    values = [m["value"] for m in r["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if kind == "end_to_end":
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, 1))["metrics"] for _ in range(2))
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_campaign_checks_reject_the_other_campaign(tmp_path):
    clean = workloads.make("campaign-clean", str(tmp_path), smoke=True).run(11)
    fault = workloads.make("campaign-fault", str(tmp_path), smoke=True).run(11)
    assert clean.problems == [] and fault.problems == []
    clean_text, fault_text = clean.output.decode(), fault.output.decode()
    assert workloads.check_campaign_clean(1, fault_text, 1000)
    assert workloads.check_campaign_clean(0, clean_text, 301)
    assert workloads.check_campaign_fault(0, clean_text)
    stats, *reports = fault_text.splitlines()
    wrong = json.loads(reports[0])
    wrong["violation"]["clause"] = "merge_right/index"
    assert workloads.check_campaign_fault(
        1, "\n".join([stats, json.dumps(wrong), *reports[1:]]))


def test_exhaustive_check_rejects_wrong_verdicts(tmp_path):
    rep = workloads.make("exhaustive", str(tmp_path), smoke=True).run(None)
    assert rep.problems == []
    complete, adequacy = rep.output.decode().split("\0")
    answer = workloads.SMOKE_ANSWER
    assert workloads.check_exhaustive(0, complete, 0, adequacy,
                                      workloads.FULL_ANSWER)
    report = json.loads(complete)
    per = report["containers"]["Dispenser"]
    untagged = next(f for f in per.values() if not f["post_complete"])
    untagged["tag"] = None
    assert workloads.check_exhaustive(0, json.dumps(report), 0, adequacy, answer)
    verdicts = json.loads(adequacy)
    verdicts[0]["adequate"] = False
    assert workloads.check_exhaustive(0, complete, 1, json.dumps(verdicts),
                                      answer)


def test_client_reports_a_result_the_list_model_does_not_expect():
    script = client.make_script(11, 6, 25)
    _, plan = script[0]
    i = next(i for i, step in enumerate(plan) if step[0] == "count")
    feature, kind, args, expected = plan[i]
    plan[i] = (feature, kind, args, expected + 1)
    problems, _ = client.run_checked(script, workloads.Marks(), [])
    assert len(problems) == 1 and "count" in problems[0]


def test_best_keeps_each_segment_at_its_least_time():
    from run import Best

    def rep(*ns):
        marks = workloads.Marks()
        marks.ns.extend(ns)
        marks.calls.extend([1, 2])  # one timed call: from mark 1 to mark 2
        return workloads.Rep(ns[-1] - ns[0], calls=1, marks=marks)

    best = Best(rep(0, 5, 15, 18))
    assert best.update(rep(100, 102, 114, 120))
    assert list(best.seg_ns) == [2, 10, 3]
    assert best.wall_ns == 15 and best.call_ns() == [10]
    assert not best.update(rep(0, 5, 15))


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("campaign-clean", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_counts_calls_and_restores_what_it_wraps():
    from mbc import autotest, contracts, model_math
    from spans import Tracer

    stack = contracts.REGISTRY["Stack"]

    def wrapped():
        return (contracts.abstract_state, autotest.checked_command,
                model_math.MSeq.__init__, stack.features["put"].body,
                stack.features["put"].clauses, stack.invariants)

    before = wrapped()
    with Tracer() as tracer:
        assert wrapped()[0] is not before[0]
        obj = contracts.checked_constructor(stack, "make_empty")
        contracts.checked_command(obj, "put", [model_math.Ref("a")])
    assert tracer.calls["contracts.checked_command"] == 1
    assert tracer.calls["containers.body:Stack.put"] == 1
    assert tracer.clause_evals > 0
    assert all(a is b for a, b in zip(wrapped(), before))
