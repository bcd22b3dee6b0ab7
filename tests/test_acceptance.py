"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Lines are written to the real stdout so they survive pytest capture.
"""

import hashlib
import itertools
import json
import pathlib
import sys
import time

from mbc import boogie_export as bx
from mbc.autotest import replay, run_campaign
from mbc.checkers import (
    EnumerationConfig, check_command_completeness,
    check_observational_adequacy, classify_feature,
)
from mbc.containers import CONTAINER_NAMES, FaultSwitch
from mbc.contracts import abstract_state
from mbc.model_math import MMap, MSeq, MSet, Ref

CFG = EnumerationConfig()
GOLDEN = pathlib.Path(__file__).parent / "golden" / "theories.bpl"
_cache = {}


def _report(criterion, ok, detail, elapsed):
    from conftest import CRITERION_LINES
    line = (f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s) {detail}")
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_model_algebra():
    t0 = time.time()
    universe = [Ref("a"), Ref("b")]
    seqs = [MSeq(items) for n in range(4)
            for items in itertools.product(universe, repeat=n)]
    ok = True
    for s in seqs:
        for x in universe:
            ok &= s.extended(x).count == s.count + 1
            ok &= s.extended(x).item(s.count + 1) == x
        for n in range(s.count + 1):
            ok &= s.front(n) + s.tail(n + 1) == s
        ok &= s.range == s.to_bag().domain
        for x in universe:
            ok &= s.occurrences(x) == s.to_bag()[x]
    subsets = [MSet(c) for n in range(3)
               for c in itertools.combinations(universe, n)]
    for a, b in itertools.product(subsets, repeat=2):
        ok &= (a | b).count == a.count + b.count - (a * b).count
        ok &= (a | b) - b == a - b
    maps = [MMap(zip(range(1, n + 1), vs)) for n in range(4)
            for vs in itertools.product(universe, repeat=n)]
    for m in maps:
        for k in m.domain:
            for v in universe:
                r = m.replaced_at(k, v)
                ok &= r.domain == m.domain and r[k] == v
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 30,
            f"exhaustive algebra over {len(seqs)} sequences, "
            f"{len(maps)} maps", elapsed)


def test_criterion_2_completeness_verdicts():
    t0 = time.time()
    checks = []
    for fname in ("is_empty", "wipe_out", "put"):
        v = classify_feature("Collection", fname, CFG)
        checks.append(v.pre_sound and v.post_complete)
    dp = check_command_completeness("Dispenser", "put", CFG)
    checks.append(not dp.post_complete)
    checks.append(any("⟨a,b,b⟩" in w and "⟨b,a,b⟩" in w for w in dp.witnesses))
    checks.append(check_command_completeness("ArrayT", "fill", CFG).post_complete)
    checks.append(check_command_completeness("Table", "put", CFG).post_complete)
    elapsed = time.time() - t0
    _report(2, all(checks) and elapsed < 60,
            "Collection sound+complete; Dispenser.put position witness; "
            "ArrayT.fill and Table.put complete", elapsed)


def test_criterion_3_fault_experiment():
    t0 = time.time()
    faults = FaultSwitch(merge_right_missing_link=True)
    r = run_campaign(["LinkedList"], 10_000, 0, faults=faults)
    _cache["c3"] = r.to_json_lines()
    clauses = {rep.violation["clause"] for rep in r.reports}
    model_hits = r.violations >= 1 and clauses == {"merge_right/sequence"}
    classic_clean = all(
        replay(rep, faults=FaultSwitch(merge_right_missing_link=True),
               mode="classic") is None
        for rep in r.reports)
    elapsed = time.time() - t0
    _report(3, model_hits and classic_clean and elapsed < 60,
            f"{r.violations} model violations, 0 classic violations on the "
            "same traces", elapsed)


# The sha256 of criterion 4's campaign output, as `mbc test --all --calls
# 100000 --seed 7` writes it.
CLEAN_LIBRARY_SHA256 = (
    "d40a6184e049e17802dff868f922c2543ae805c815a66b1ca772451555c27999")


def test_criterion_4_clean_library():
    t0 = time.time()
    r = run_campaign(CONTAINER_NAMES, 100_000, 7)
    digest = hashlib.sha256(r.to_json_lines().encode("utf-8")).hexdigest()
    elapsed = time.time() - t0
    _report(4, r.violations == 0 and digest == CLEAN_LIBRARY_SHA256
            and elapsed < 300,
            f"100k calls, {r.stats['rejected']} filtered, 0 violations, "
            f"output sha256 {digest[:8]}", elapsed)


def _adequacy_triple():
    full = ["put", "item", "remove", "is_empty", "count", "wipe_out"]
    no_remove = ["put", "item", "is_empty", "count", "wipe_out"]

    def reduced(obj):
        s = abstract_state(obj)
        n = s.sequence.count
        return (n, s.sequence.item(1) if n else None)

    v1 = check_observational_adequacy("Queue", CFG, features=full)
    v2 = check_observational_adequacy("Queue", CFG, model_fn=reduced,
                                      features=no_remove)
    v3 = check_observational_adequacy("Queue", CFG, features=no_remove)
    return v1, v2, v3


def test_criterion_5_adequacy():
    t0 = time.time()
    v1, v2, v3 = _adequacy_triple()
    _cache["c5"] = json.dumps([v1.to_dict(), v2.to_dict(), v3.to_dict()],
                              sort_keys=True)
    witness = any(f.startswith("minimality") for f in v3.failures)
    elapsed = time.time() - t0
    _report(5, v1.adequate and v2.adequate and not v3.adequate and witness
            and elapsed < 120,
            "full model adequate; reduced two-query model adequate without "
            "remove; full model fails minimality without remove", elapsed)


def test_criterion_6_boogie_golden():
    t0 = time.time()
    generated = bx.export_all_text().encode("utf-8")
    golden = GOLDEN.read_bytes()
    text = golden.decode("utf-8")
    lines_present = (
        "type Sequence T = [int] T ;" in text
        and "Sequence.extended(s, x) == s[Sequence.count(s)+1 := x]);" in text
        and "Sequence.count(Sequence.extended(s, x)) == Sequence.count(s)+1);"
        in text)
    elapsed = time.time() - t0
    _report(6, generated == golden and lines_present,
            "export byte-identical to golden; core declaration and both "
            "extended axioms present", elapsed)


def test_criterion_7_library_report(tmp_path):
    t0 = time.time()
    from mbc.cli import main
    out = tmp_path / "report.json"
    code = main(["report", "--all", "--calls", "5000", "--seed", "7",
                 "--out", str(out)])
    rep = json.loads(out.read_text(encoding="utf-8"))
    s = rep["completeness"]["summary"]
    tagged_once = not s["errors"]
    elapsed = time.time() - t0
    _report(7, code == 0 and tagged_once and s["incomplete_pct"] <= 10.0,
            f"mbc report over all containers: {s['incomplete']}/"
            f"{s['features']} features incomplete ({s['incomplete_pct']}%), "
            "all tagged with one benign cause",
            elapsed)


def test_criterion_8_determinism():
    t0 = time.time()
    faults = FaultSwitch(merge_right_missing_link=True)
    again3 = run_campaign(["LinkedList"], 10_000, 0,
                          faults=faults).to_json_lines()
    v1, v2, v3 = _adequacy_triple()
    again5 = json.dumps([v1.to_dict(), v2.to_dict(), v3.to_dict()],
                        sort_keys=True)
    ok = again3 == _cache.get("c3") and again5 == _cache.get("c5")
    elapsed = time.time() - t0
    _report(8, ok, "fault campaign and adequacy reports byte-identical on "
            "repeat runs", elapsed)
