#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

Checks that
- the same seed generates byte-identical instances and query corpora, also
  in a fresh process with another string-hash seed, and another seed
  generates different ones;
- the tracer computes self time as a span minus its children, restores
  every name it wrapped, and reports zero calls for a name the package no
  longer defines.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import run

SEEDS = (1, 2)


def fingerprints() -> dict[str, str]:
    from workloads import WORKLOADS as W, fingerprint

    return {
        f"{name}:{seed}": fingerprint(W[name].cases(seed))
        for name in run.NAMES
        for seed in SEEDS
    }


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def test_determinism() -> None:
    here = fingerprints()
    env = dict(os.environ, PYTHONHASHSEED="12345")
    child = subprocess.run(
        [sys.executable, __file__, "--fingerprints"], env=env,
        stdout=subprocess.PIPE, text=True, check=True,
    )
    there = dict(line.split(" ", 1) for line in child.stdout.splitlines())
    for key, value in here.items():
        check(there.get(key) == value, f"{key} inputs are byte-identical in another process")
    for name in run.NAMES:
        check(here[f"{name}:1"] != here[f"{name}:2"], f"{name} inputs differ between seeds")


def test_tracer() -> None:
    import cqa.attacks
    from spans import TARGETS, Tracer

    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    time.sleep(0.01)
    tracer.close(inner)
    time.sleep(0.01)
    tracer.close(outer)
    agg = tracer.aggregate()["outer"]
    self_outer = agg["outer"]["self_s"]
    expect = agg["outer"]["total_s"] - agg["inner"]["total_s"]
    check(abs(self_outer - expect) < 1e-9 and self_outer > 0.005, "self time is the span minus its child")

    original = cqa.attacks.attack_graph
    missing = ("queries.gone", "cqa.queries", "no_such_function", None)
    tracer = Tracer(TARGETS + [missing])
    tracer.install()
    try:
        check(cqa.attacks.attack_graph is not original, "attack_graph is wrapped while installed")
        root = tracer.open("op.base")
        q = cqa.queries.parse_query("q(z) :- E(x | 'F', y), D(y | z).")
        cqa.classify.in_cparsimony(q)
        tracer.close(root)
    finally:
        tracer.uninstall()
    check(cqa.attacks.attack_graph is original, "uninstall restores attack_graph")
    group = tracer.aggregate()["op.base"]
    check(group["attacks.attack_graph"]["calls"] >= 1, "wrapped attack_graph calls are counted")
    check("queries.gone" not in group, "a name the package lacks reports zero calls")


def main() -> int:
    if "--fingerprints" in sys.argv:
        run.import_package()
        for key, value in fingerprints().items():
            print(key, value)
        return 0
    run.import_package()
    test_determinism()
    test_tracer()
    return 0


if __name__ == "__main__":
    sys.exit(main())
