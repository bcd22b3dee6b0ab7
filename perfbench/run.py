"""mbc benchmark: time to a verdict for the four ways the toolkit is used.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``campaign-clean``, ``campaign-fault``,
``exhaustive`` and ``monitored-client``.  ``mbc`` is imported from
``src/``; the CLI workloads call ``mbc.cli.main`` in-process with ``--out``
and an explicit ``--seed``, never ``--workers``.

With ``--trace 0`` the run makes passes over the seed's inputs for about
``--seconds`` and at least three passes.  Each input is timed at its best:
its repetition is cut into short segments at fixed points (the entry and
exit of each call, and more points inside long calls), and each segment
counts at its least time over the passes.  On a shared host the speed of
a core shifts by up to 2.5x within seconds, so the best over passes spread
across the run repeats from run to run where a median does not.  The
end-to-end metrics are medians and percentiles of those best times.  With
``--trace 1`` it runs each input once untraced, then once under the span
tracer of ``spans.py``, and reports the per-layer metrics and the tracing
overhead.
Every repetition's output is checked against the workload's known answer
and digested with sha256; repetitions of the same input, and the traced
and untraced runs of one input, must give identical bytes.

The human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` shrinks every workload for the benchmark's own
tests.  Without ``src/mbc`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
MIN_PASSES = 3

# Imports timed by setup_s: the CLI module and the container registry.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import mbc.cli
from mbc.contracts import REGISTRY
elapsed = time.perf_counter() - start
print(elapsed if len(REGISTRY) == 9 else -1.0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    return p.parse_args(argv)


# -- environment ---------------------------------------------------------

def git_commit(root):
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "mbc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
        "seed": seed,
    }


def import_seconds():
    """Seconds to import ``mbc.cli`` and build the registry in a fresh
    isolated interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=60,
                          cwd=ROOT, check=True)
    value = float(proc.stdout)
    if value < 0:
        raise RuntimeError("the container registry is incomplete")
    return value


# -- statistics ----------------------------------------------------------

def high_percentile(values):
    """(label, value) of p99, or of the highest percentile with at least
    ten samples beyond it when there are fewer than 1000 samples (never
    below the median)."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 1000:
        k = math.ceil(0.99 * n) - 1
    else:
        k = max(n // 2, n - 11)
    return f"p{100.0 * (k + 1) / n:.1f}", ordered[k]


# -- repetitions ---------------------------------------------------------

def run_rep(workload, inp):
    start = time.perf_counter_ns()
    try:
        return workload.run(inp)
    except Exception as e:  # a verdict that raises is a failed repetition
        from workloads import Rep
        where = traceback.extract_tb(e.__traceback__)[-1]
        return Rep(time.perf_counter_ns() - start,
                   problems=[f"raised {type(e).__name__}: {e} "
                             f"({where.filename}:{where.lineno})"])


def digest(rep):
    return hashlib.sha256(rep.output).hexdigest()


def segments(ns):
    return array("q", map(operator.sub, ns[1:], ns[:-1]))


class Best:
    """One input's best over its repetitions: each segment between two
    neighbouring marks (see ``workloads.Marks``) at its least time, in
    nanoseconds."""

    def __init__(self, rep):
        self.seg_ns = segments(rep.marks.ns)
        self.call_idx = rep.marks.calls
        self.calls = rep.calls

    def update(self, rep):
        """Fold in another repetition; False if it took other marks."""
        if (len(rep.marks.ns) != len(self.seg_ns) + 1
                or rep.marks.calls != self.call_idx or rep.calls != self.calls):
            return False
        self.seg_ns = array("q", map(min, self.seg_ns, segments(rep.marks.ns)))
        return True

    @property
    def wall_ns(self):
        return sum(self.seg_ns)

    def call_ns(self):
        """Each timed call's best latency: the sum of its segments."""
        idx, seg = self.call_idx, self.seg_ns
        return [sum(seg[idx[i]:idx[i + 1]]) for i in range(0, len(idx), 2)]


def timed_run(workload, units, seconds, imports):
    """Make passes over ``units``, the run's inputs, until about ``seconds``
    have passed and MIN_PASSES are done; no pass is begun that would end
    well past ``seconds``.  The ``imports`` set-up samples are taken
    between repetitions, spread over the run like the repetitions are."""
    best, digests = [None] * len(units), {}
    problems, setup = [], []
    attempted = failed = passes = 0
    import_seconds()  # unmeasured: fills the bytecode cache
    start = time.perf_counter()
    while True:
        for i, inp in enumerate(units):
            elapsed = time.perf_counter() - start
            while len(setup) < min(imports, int(imports * elapsed / seconds) + 1):
                setup.append(import_seconds())
            rep = run_rep(workload, inp)
            attempted += 1
            if rep.problems:
                failed += 1
                problems += [f"input {inp}: {p}" for p in rep.problems]
                continue
            if digests.setdefault(inp, digest(rep)) != digest(rep):
                problems.append(f"input {inp}: output digest changed between "
                                f"repetitions")
            if best[i] is None:
                best[i] = Best(rep)
            elif not best[i].update(rep):
                problems.append(f"input {inp}: calls changed between "
                                f"repetitions")
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed + 0.5 * elapsed / passes >= seconds:
            break
    setup += [import_seconds() for _ in range(imports - len(setup))]
    return (best, passes, statistics.median(setup), digests, attempted,
            failed, problems)


def end_to_end(best, passes, setup_s, peak_rss_mb, lines):
    done = [b for b in best if b is not None]
    # Both lists are empty only when every repetition failed.
    walls = [b.wall_ns / 1e9 for b in done] or [0.0]
    samples = [x for b in done for x in b.call_ns()] or [0]
    label, high = high_percentile(samples)
    lines.append(f"passes: {passes} over {len(best)} inputs; call latency "
                 f"samples (each a call's best): {len(samples)}; "
                 f"call_us.p99 reports {label}")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "calls_per_s": sum(b.calls for b in done) / (sum(walls) or 1.0),
        "call_us.p50": statistics.median(samples) / 1e3,
        "call_us.p99": high / 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


# -- traced run ----------------------------------------------------------

def per_layer(workload, inputs, untraced, traced, tracer, lines):
    import client

    calls, self_ns, incl_ns, phase_ns = (tracer.calls, tracer.self_ns,
                                         tracer.incl_ns, tracer.phase_ns)

    def s(ns):
        return ns / 1e9

    def model_math(n):
        return n.startswith("model_math.")

    def body(n):
        return n.startswith("containers.body:")

    def query(n):
        return n.startswith("containers.") and ".model_" in n

    def checked(n):
        return n.startswith("contracts.checked_")

    stats = [r.info["stats"] for r in traced if "stats" in r.info]
    attempted = sum(st["calls"] for st in stats)
    wall_untraced = statistics.median(r.wall_ns for r in untraced) / 1e9
    wall_traced = statistics.median(r.wall_ns for r in traced) / 1e9
    metrics = {
        "model_math.values_built": sum(
            calls[f"model_math.{c}.__init__"]
            for c in ("MSeq", "MSet", "MBag", "MMap", "MRel")),
        "model_math.order_key_calls": calls["model_math.order_key"],
        "model_math.self_s": s(tracer.total(self_ns, model_math)),
        "containers.body_calls": tracer.total(calls, body),
        "containers.body_s": s(tracer.total(self_ns, body)),
        "containers.model_query_calls": tracer.total(calls, query),
        "containers.model_query_s": s(tracer.total(self_ns, query)),
        "contracts.abstract_state_calls": calls["contracts.abstract_state"],
        "contracts.abstract_state_s": s(incl_ns["contracts.abstract_state"]),
        "contracts.checked_calls": tracer.total(calls, checked),
        "contracts.checked_self_s": s(tracer.total(self_ns, checked)),
        "contracts.clause_evals": tracer.clause_evals,
        "contracts.serialize_s": s(phase_ns["contracts.serialize"]),
        "contracts.rejected_frac": (sum(st["rejected"] for st in stats) / attempted
                                    if attempted else 0.0),
        "autotest.useful_frac": (sum(st["passed"] for st in stats) / attempted
                                 if attempted else 0.0),
        "autotest.loop_self_s": s(self_ns["autotest.run_campaign"]
                                  + self_ns["autotest.generate_arguments"]),
        "autotest.replay_s": s(incl_ns["autotest.replay"]),
        "autotest.reports": sum(r.info.get("reports", 0) for r in traced),
        "checkers.enumerate_calls": calls["checkers.enumerate_states"],
        "checkers.enumerate_s": s(phase_ns["checkers.enumerate"]),
        "checkers.completeness_s": s(phase_ns["checkers.completeness"]),
        "checkers.soundness_s": s(phase_ns["checkers.soundness"]),
        "checkers.adequacy_s": s(phase_ns["checkers.adequacy"]),
        "checkers.states_checked": sum(r.info.get("states_checked", 0)
                                       for r in traced),
        "cli.emit_s": s(phase_ns["cli.emit"]),
        "trace.overhead_s": wall_traced - wall_untraced,
        "trace.overhead_frac": (wall_traced - wall_untraced) / wall_untraced,
    }
    ratios = dict.fromkeys(client.CONTAINERS, 0.0)
    if "per_container" in untraced[0].info:
        # Checked time of the first script, untraced, over the median of
        # five raw runs of the same script.
        script = workload.script(inputs[0])
        raw = [client.run_raw(script) for _ in range(5)]
        checked_ns = untraced[0].info["per_container"]
        for name in ratios:
            ratios[name] = checked_ns[name] / statistics.median(r[name] for r in raw)
        metrics["contracts.overhead_ratio"] = (
            sum(checked_ns.values())
            / statistics.median(sum(r.values()) for r in raw))
    else:
        metrics["contracts.overhead_ratio"] = 0.0
    for name, ratio in ratios.items():
        metrics[f"contracts.overhead_ratio.{name}"] = ratio
    lines.append(f"traced repetitions: {len(traced)}; wall untraced "
                 f"{wall_untraced:.4f} s, traced {wall_traced:.4f} s; "
                 f"spans kept: {len(tracer.spans)}")
    lines.append("wrapped model_math constructors and order_key distort "
                 "timings: their counts are the trustworthy numbers")
    return metrics


def traced_run(workload, name, seed, lines):
    from spans import Tracer

    inputs = workload.units(seed)
    untraced = [run_rep(workload, inp) for inp in inputs]
    tracer = Tracer()
    with tracer:
        traced = [run_rep(workload, inp) for inp in inputs]
    problems = []
    for inp, u, t in zip(inputs, untraced, traced):
        problems += [f"input {inp}: {p}" for p in u.problems + t.problems]
        if digest(u) != digest(t):
            problems.append(f"input {inp}: traced output differs from untraced")
    failed = sum(1 for r in untraced + traced if r.problems)
    spans_path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    lines.append(f"output sha256 of input {inputs[0]}: {digest(untraced[0])}")
    metrics = per_layer(workload, inputs, untraced, traced, tracer, lines)
    return metrics, 2 * len(inputs), failed, problems


# -- main ----------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mbc" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no mbc sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.NAMES)}\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args.seed)
    workload = workloads.make(args.workload, str(OUT_DIR), smoke=args.smoke)
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
             + (" smoke" if args.smoke else ""),
             "environment: " + json.dumps(env, sort_keys=True)]

    if args.trace:
        metrics, attempted, failed, problems = traced_run(
            workload, args.workload, args.seed, lines)
    else:
        units = workload.units(args.seed)
        best, passes, setup_s, digests, attempted, failed, problems = \
            timed_run(workload, units, args.seconds, 2 if args.smoke else 25)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines.append(f"inputs: {units[0]} .. {units[-1]}")
        for inp, sha in digests.items():
            lines.append(f"output sha256 of input {inp}: {sha}")
        metrics = end_to_end(best, passes, setup_s, peak_rss_mb, lines)
    lines.append(f"known-answer check: {failed} of {attempted} repetitions "
                 f"failed; failed_frac = {failed / attempted}")
    lines += [f"PROBLEM: {p}" for p in problems[:20]]
    lines += [f"{name} = {value}" for name, value in metrics.items()]
    for path in OUT_DIR.glob(f"*-{os.getpid()}*"):
        path.unlink()

    units = metric_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def metric_units(kind):
    """Name to unit of every metric of ``kind`` in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


if __name__ == "__main__":
    sys.exit(main())
