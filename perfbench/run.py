#!/usr/bin/env python3
"""Closed-loop benchmark for the cqa package: one client, no threads.

    python3 perfbench/run.py --workload employee --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

It imports the package from `src/` of the checkout it sits in, generates
its inputs from the seed, times set-up and a loop of operations, checks
every answer outside the timed region, and prints one JSON object as the
last line of standard output.  `--trace 0` reports the end-to-end metrics;
`--trace 1` runs half the time untraced and half with spans around the
package's public names, and reports the per-layer metrics.  `--workload
all` runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("employee", "lookup", "oracle", "classify")
SETUPS = 7  # set-up passes per run; setup_s is their median
P90_MIN_SAMPLES = 100
REF_NOMINAL_S = 0.001  # reported times are at the speed where the reference takes this
REF_EVERY_S = 0.025  # a reference sample at most this often between operations
SPAN_CAP = 1_000_000  # a traced loop stops after the round that passes this many spans

OK, REFUSED, ERROR = "ok", "refused", "error"


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import cqa
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cqa from {SRC}: {exc}") from None
    if not Path(cqa.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: cqa was imported from {cqa.__file__}, not {SRC}")
    return cqa


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


class _Ref:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _reference() -> int:
    """Fixed interpreter work of the kind the package does: tuples, small
    objects, dict and set operations, string formatting."""
    seen: dict = {}
    acc = 0
    for i in range(1000):
        key = (i % 61, f"v{i % 17}")
        r = _Ref(key, i)
        seen[key] = seen.get(key, 0) + r.value
        acc += len(r.key[1]) + (key in seen)
    return acc + len(frozenset(seen) & {(1, "v1"), (2, "v2")})


class Speed:
    """Reference timings taken between operations.

    The host this runs on may change speed by a factor of two for seconds
    at a time (other tenants, frequency changes).  Each measured interval is
    scaled by REF_NOMINAL_S over the reference time measured around it, so
    reported times are in seconds at a fixed reference speed; raw wall-clock
    figures are printed alongside.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _reference()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] >= REF_EVERY_S

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, at the reference speed: uses the
        median of the three samples nearest the interval's midpoint."""
        mid = start + seconds / 2
        i = bisect.bisect(self.at, mid)
        near = sorted(range(max(0, i - 3), min(len(self.at), i + 3)),
                      key=lambda j: abs(self.at[j] - mid))[:3]
        return seconds * REF_NOMINAL_S / statistics.median(self.took[j] for j in near)


@dataclass
class Loop:
    """Outcomes of one closed loop: (case index, kind, same answer as the
    case's first, seconds at reference speed, wall seconds)."""

    outcomes: list[tuple[int, str, bool, float, float]] = field(default_factory=list)
    first: dict[int, object] = field(default_factory=dict)  # first answer or refusal per case
    elapsed: float = 0.0  # sum of the operations' times at reference speed
    ref_ms: float = 0.0  # median reference time during the loop


def closed_loop(workload, cases, prepared, seconds: float, tracer=None) -> Loop:
    """Run every case in order, round after round, until `seconds` have
    passed; a round always completes, so each case weighs the same."""
    from cqa import AnalysisRefusal

    speed = Speed()
    raw = []
    first: dict[int, object] = {}
    deadline = perf_counter() + seconds
    while True:
        for i, (case, p) in enumerate(zip(cases, prepared)):
            if speed.due():
                speed.sample()
            span = tracer.open("op." + case.size) if tracer else None
            t0 = perf_counter()
            try:
                value, kind = workload.run(p), OK
            except AnalysisRefusal as exc:
                value, kind = exc, REFUSED
            except Exception as exc:  # counted as a failed operation
                value, kind = exc, ERROR
            dt = perf_counter() - t0
            if tracer:
                tracer.close(span)
            # One answer is kept per case and later ones are compared with
            # it here, outside the timed call, so memory stays flat.
            if kind != OK:
                value = f"{type(value).__name__}: {value}"
            if i not in first:
                first[i], same = value, True
            else:
                same = _equal(value, first[i])
            raw.append((i, kind, same, t0, dt))
        if perf_counter() >= deadline or (tracer is not None and len(tracer) >= SPAN_CAP):
            break
    loop = Loop(first=first)
    speed.sample()
    for i, kind, same, t0, dt in raw:
        scaled = speed.scale(t0, dt)
        loop.elapsed += scaled
        loop.outcomes.append((i, kind, same, scaled, dt))
    loop.ref_ms = statistics.median(speed.took) * 1000
    return loop


def _equal(a, b) -> bool:
    try:
        return bool(a == b)
    except Exception:
        return False


@dataclass
class Tally:
    attempted: int = 0
    answered: int = 0
    refused: int = 0
    failed: int = 0
    # Per size, seconds per answered operation (at reference speed / wall).
    latency: dict[str, list[float]] = field(default_factory=lambda: {"base": [], "2x": []})
    wall: dict[str, list[float]] = field(default_factory=lambda: {"base": [], "2x": []})
    problems: list[str] = field(default_factory=list)


def tally(workload, cases, prepared, loop: Loop, predicates: dict) -> Tally:
    """Check every outcome.  `predicates` caches each case's expectation
    across loops; the check of a case's first answer covers every later
    answer that equals it."""
    t = Tally()
    verdicts: dict[int, bool] = {}
    for i, kind, same, dt, wall in loop.outcomes:
        case = cases[i]
        t.attempted += 1
        if kind == REFUSED:
            t.refused += 1
            if not case.refusable:
                t.failed += 1
                t.problems.append(f"case {i} ({case.family}) refused: {loop.first[i]}")
            continue
        if kind == ERROR:
            t.failed += 1
            t.problems.append(f"case {i} ({case.family}) raised {loop.first[i]}")
            continue
        if i not in verdicts:
            verdicts[i] = _verdict(workload, cases, prepared, loop, predicates, i, t.problems)
        if same and verdicts[i]:
            t.answered += 1
            t.latency[case.size].append(dt)
            t.wall[case.size].append(wall)
        else:
            t.failed += 1
            if verdicts[i]:
                t.problems.append(f"case {i} ({case.family}) answered differently across rounds")
    return t


def _verdict(workload, cases, prepared, loop, predicates, i, problems) -> bool:
    first = loop.first[i]
    if isinstance(first, str):  # the first round raised; a later one answered
        return False
    if i not in predicates:
        try:
            predicates[i] = workload.expect(cases[i], prepared[i])
        except Exception as exc:
            problems.append(f"case {i}: expectation raised {type(exc).__name__}: {exc}")
            predicates[i] = lambda _: False
    if predicates[i](first):
        return True
    problems.append(f"case {i} ({cases[i].family}) wrong answer: {first!r}"[:500])
    return False


def p50(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def determinism_problems(workload, seed: int, cases) -> list[str]:
    from workloads import fingerprint

    first = fingerprint(cases)
    out = []
    if fingerprint(workload.cases(seed)) != first:
        out.append("the same seed generated different inputs")
    if fingerprint(workload.cases(seed + 1)) == first:
        out.append("a different seed generated the same inputs")
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / "_work"))
    try:
        return _run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    cases = workload.cases(seed)
    for i, case in enumerate(cases):
        if case.bundle is not None:
            case.path = workdir / f"{i:03d}"
            case.bundle.write(case.path)

    speed = Speed()
    passes = []
    for _ in range(SETUPS):
        speed.sample()
        t0 = perf_counter()
        prepared = [workload.prepare(case) for case in cases]
        passes.append((t0, perf_counter() - t0))
    speed.sample()
    setup_times = [speed.scale(t0, dt) for t0, dt in passes]
    for size in ("base", "2x"):  # warm-up: first case of each size, untimed
        i = next(i for i, c in enumerate(cases) if c.size == size)
        try:
            workload.run(prepared[i])
        except Exception:
            pass  # the timed loop records the same outcome

    print(f"workload {workload.name} seed {seed} cases {len(cases)} "
          f"({sum(c.size == 'base' for c in cases)} base, {sum(c.size == '2x' for c in cases)} at 2x)")
    if trace:
        metrics, report_only, tallies = _traced(workload, seed, cases, prepared, seconds)
    else:
        metrics, report_only, tallies = _untraced(workload, cases, prepared, seconds, setup_times)
        report_only["wall.setup_s"] = (statistics.median(dt for _, dt in passes), "s")

    problems = [p for t in tallies for p in t.problems]
    problems += workload.cross_check(seed, workdir)
    problems += determinism_problems(workload, seed, cases)
    for p in problems[:20]:
        print(f"problem {p}")
    for name, (value, unit) in {**{k: (v["value"], v["unit"]) for k, v in metrics.items()},
                                **report_only}.items():
        print(f"metric {name} {value:.6g} {unit}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _untraced(workload, cases, prepared, seconds: float, setup_times: list[float]):
    loop = closed_loop(workload, cases, prepared, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t = tally(workload, cases, prepared, loop, {})
    metrics = end_to_end(t, loop, setup_times, peak_rss_mb)
    report_only = {
        "failed_ratio": (t.failed / t.attempted, "ratio"),
        "refused_ratio": (t.refused / t.attempted, "ratio"),
        "doubling_x": (_ratio(p50(t.latency["2x"]), p50(t.latency["base"])), "x"),
        "samples.base": (len(t.latency["base"]), "ops"),
        "samples.2x": (len(t.latency["2x"]), "ops"),
        "wall.latency_s.p50": (p50(t.wall["base"]), "s"),
        "wall.latency_2x_s.p50": (p50(t.wall["2x"]), "s"),
        "reference_ms": (loop.ref_ms, "ms"),
    }
    if len(t.latency["base"]) >= P90_MIN_SAMPLES:
        report_only["latency_s.p90"] = (statistics.quantiles(t.latency["base"], n=10)[-1], "s")
    return metrics, report_only, [t]


def _traced(workload, seed: int, cases, prepared, seconds: float):
    """Half the time untraced, then one traced set-up pass and half the
    time traced, on the same prepared cases."""
    from spans import Tracer

    plain = closed_loop(workload, cases, prepared, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        span = tracer.open("setup")
        for case in cases:
            workload.prepare(case)
        tracer.close(span)
        traced = closed_loop(workload, cases, prepared, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    predicates: dict = {}
    t_plain = tally(workload, cases, prepared, plain, predicates)
    t_traced = tally(workload, cases, prepared, traced, predicates)
    out = BENCH / "out" / f"{workload.name}-seed{seed}-spans.tsv.gz"
    tracer.write(out)
    print(f"spans {out.relative_to(ROOT)}")
    agg = tracer.aggregate()
    print_self_shares(agg)
    report_only = {"spans_written": (len(tracer), "spans")}
    return per_layer(agg, t_plain, t_traced), report_only, [t_plain, t_traced]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(t: Tally, loop: Loop, setup_times: list[float], peak_rss_mb: float) -> dict:
    return {
        "latency_s.p50": _m(p50(t.latency["base"]), "s"),
        "latency_2x_s.p50": _m(p50(t.latency["2x"]), "s"),
        "ops_per_s": _m(t.answered / loop.elapsed, "1/s"),
        "answered_ratio": _m(t.answered / t.attempted, "ratio"),
        "peak_rss_mb": _m(peak_rss_mb, "MB"),
        "setup_s": _m(statistics.median(setup_times), "s"),
    }


# Names whose calls, total and self time are reported per base-size operation.
TIMED = (
    "attacks.attack_graph",
    "queries.instantiate",
    "queries.substitute",
    "queries.ConjunctiveQuery.without",
    "queries.parse_query",
    "fds.FunctionalDependencySet.closure",
    "classify.in_cparsimony",
    "classify.in_cforest",
    "instances.DatabaseInstance",
    "instances.relation_facts",
    "instances.block",
    "instances.repair_count",
    "evaluate.evaluate",
    "evaluate.certain_answers",
)


def per_layer(agg: dict, t_plain: Tally, t_traced: Tally) -> dict:
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}

    def per_op(size: str):
        group = agg.get("op." + size, {})
        ops = group.get("op." + size, zero)["calls"] or 1
        return lambda label, key: group.get(label, zero).get(key, 0) / ops

    base, twice = per_op("base"), per_op("2x")
    setup = agg.get("setup", {})
    m: dict[str, dict] = {}
    for label in TIMED:
        m[f"{label}.calls"] = _m(base(label, "calls"), "calls/op")
        m[f"{label}.total_s"] = _m(base(label, "total_s"), "s/op")
        m[f"{label}.self_s"] = _m(base(label, "self_s"), "s/op")
    m["instances.facts_scanned"] = _m(base("instances.relation_facts", "count"), "facts/op")
    m["instances.enumerate_repairs.calls"] = _m(base("instances.enumerate_repairs", "calls"), "calls/op")
    m["instances.enumerate_repairs.repairs"] = _m(base("instances.enumerate_repairs", "count"), "repairs/op")
    m["evaluate.evaluate.tuples"] = _m(base("evaluate.evaluate", "count"), "tuples/op")
    candidates = base("evaluate.certain_answers", "candidates")
    kept = base("evaluate.certain_answers", "count")
    m["evaluate.certain_answers.candidates"] = _m(candidates, "tuples/op")
    m["evaluate.certain_answers.kept"] = _m(kept, "tuples/op")
    m["evaluate.certain_answers.kept_ratio"] = _m(_ratio(kept, candidates), "ratio")
    m["op.total_s"] = _m(base("op.base", "total_s"), "s/op")
    m["op.self_s"] = _m(base("op.base", "self_s"), "s/op")
    for label in ("instances.load_bundle", "queries.parse_query"):
        m[f"setup.{label}.total_s"] = _m(setup.get(label, zero)["total_s"], "s/setup")
    m["setup.instances.DatabaseInstance.self_s"] = _m(
        setup.get("instances.DatabaseInstance", zero)["self_s"], "s/setup")
    m["oracle.repairs_per_s"] = _m(
        _ratio(base("instances.enumerate_repairs", "count"), base("op.base", "total_s")), "1/s")
    for label, key, name in (
        ("instances.relation_facts", "count", "instances.facts_scanned.growth_2x"),
        ("instances.block", "calls", "instances.block.calls.growth_2x"),
        ("attacks.attack_graph", "calls", "attacks.attack_graph.calls.growth_2x"),
    ):
        m[name] = _m(_ratio(twice(label, key), base(label, key)), "x")
    m["doubling_x"] = _m(_ratio(p50(t_plain.latency["2x"]), p50(t_plain.latency["base"])), "x")
    m["trace_overhead_x"] = _m(_ratio(p50(t_traced.latency["base"]), p50(t_plain.latency["base"])), "x")
    return m


def print_self_shares(agg: dict) -> None:
    group = agg.get("op.base", {})
    total = group.get("op.base", {}).get("total_s", 0.0)
    if not total:
        return
    print("self time per name at base size (share of traced operation time):")
    for name, rec in sorted(group.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {rec['self_s'] / total:7.1%}  {name}  ({rec['calls']} calls)")


def run_all(args) -> int:
    """Each workload in its own process, one after another, so peak memory
    and import state do not leak between them.  Prints a table of every
    metric each run reported, then all of them as one JSON object."""
    results = {}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}")
            status = 1
            continue
        last = json.loads(lines[-1])
        reported = {}
        for line in lines:
            if line.startswith("metric "):
                _, metric, value, unit = line.split(" ")
                reported[metric] = {"value": float(value), "unit": unit}
        results[name] = {**last, "metrics": reported}
        status |= not last["correct"]
    names = list(dict.fromkeys(m for r in results.values() for m in r["metrics"]))
    print(f"{'metric':44} " + " ".join(f"{n:>12}" for n in results))
    for m in names:
        cells = [results[w]["metrics"].get(m, {}).get("value") for w in results]
        print(f"{m:44} " + " ".join(f"{c:12.6g}" if c is not None else f"{'-':>12}" for c in cells))
    print(json.dumps({"env": environment(), "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "results": results}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_package()
    print("env " + json.dumps(environment()))
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
