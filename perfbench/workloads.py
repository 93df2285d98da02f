"""The benchmark's four workloads.

Each workload generates its cases from the seed (data only, not timed),
prepares them in set-up (`load_bundle`, `parse_query`; timed as
`setup_s`), runs one operation per case (timed), and checks every result
against an expectation computed outside the timed region.

Calls into the package go through its module attributes (`evaluate.x`,
not a name imported once), so a traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from pathlib import Path

from cqa import classify, instances, queries

import expected
import gen

# The package re-exports the function `evaluate` under the module's name.
evaluate = importlib.import_module("cqa.evaluate")

# Repair-space cap passed to the oracle; the out-of-query conflicts below
# push an instance's unreduced space past it.
CAP = 4096
NOISE_BLOCKS = 13  # 2**13 > CAP on its own


@dataclass
class Case:
    size: str  # "base" or "2x"
    family: str
    query: str
    bundle: gen.Bundle | None = None
    refusable: bool = False  # over the cap only through out-of-query conflicts
    info: dict = field(default_factory=dict)
    path: Path | None = None


def fingerprint(cases: list[Case]) -> str:
    """Hash of every generated bundle and query text."""
    return gen.fingerprint([c.bundle for c in cases if c.bundle], [c.query for c in cases])


def interleave(*lists: list[Case]) -> list[Case]:
    out: list[Case] = []
    for group in zip(*lists):
        out.extend(group)
    return out


class Workload:
    name = ""

    def cases(self, seed: int) -> list[Case]:
        raise NotImplementedError

    def prepare(self, case: Case):
        raise NotImplementedError

    def run(self, prepared):
        raise NotImplementedError

    def expect(self, case: Case, prepared):
        """Predicate on the result of `run`, built once per case outside the
        timed region."""
        raise NotImplementedError

    def cross_check(self, seed: int, workdir: Path) -> list[str]:
        """Problems found by checks that do not involve the timed results."""
        return []


class _Counting(Workload):
    """Parsimonious counts on one fixed query; expectation in closed form."""

    query = ""
    sizes: dict[str, int] = {}
    per_size = 5

    def generate(self, rng, size: int) -> gen.Bundle:
        raise NotImplementedError

    def generate_small(self, rng) -> gen.Bundle:
        """Same generator, scaled down so the repair oracle can check it."""
        raise NotImplementedError

    def closed_form(self, bundle: gen.Bundle):
        raise NotImplementedError

    def cases(self, seed: int) -> list[Case]:
        by_size = [
            [
                Case(size, self.name, self.query, self.generate(gen.rng_for(self.name, seed, size, i), n))
                for i in range(self.per_size)
            ]
            for size, n in self.sizes.items()
        ]
        return interleave(*by_size)

    def prepare(self, case: Case):
        return queries.parse_query(case.query), instances.load_bundle(case.path)

    def run(self, prepared):
        q, db = prepared
        return evaluate.cqacount_parsimonious(q, db)

    def expect(self, case: Case, prepared):
        want = self.closed_form(case.bundle)
        return lambda answer: answer == want

    def cross_check(self, seed: int, workdir: Path) -> list[str]:
        """The closed form against the repair oracle (and the parsimonious
        route) on scaled-down instances from the same generator and seed."""
        problems = []
        q = queries.parse_query(self.query)
        full = queries.make_free(q, q.bound_vars)
        for i in range(6):
            bundle = self.generate_small(gen.rng_for(self.name, seed, "small", i))
            path = workdir / f"small-{i}"
            bundle.write(path)
            db = instances.load_bundle(path)
            want = self.closed_form(bundle)
            oracle = evaluate.cqacount_oracle(full, q.free_vars, db, cap=CAP)
            fast = evaluate.cqacount_parsimonious(q, db)
            if not (want == oracle == fast):
                problems.append(f"{self.name} small instance {i}: closed form {sorted(want)} "
                                f"oracle {sorted(oracle)} parsimonious {sorted(fast)}")
        return problems


class Employee(_Counting):
    name = "employee"
    query = gen.EMPLOYEE_QUERY
    sizes = {"base": 820, "2x": 1640}  # employees; about 1k and 2k facts

    def generate(self, rng, size: int) -> gen.Bundle:
        return gen.employee(rng, size)

    def generate_small(self, rng) -> gen.Bundle:
        return gen.employee(rng, 12, conflict=0.25, departments=4, groups=3)

    def closed_form(self, bundle):
        return expected.employee_counts(bundle)


class Lookup(_Counting):
    name = "lookup"
    query = gen.LOOKUP_QUERY
    sizes = {"base": 455, "2x": 910}  # keys; about 500 and 1k facts

    def generate(self, rng, size: int) -> gen.Bundle:
        return gen.lookup(rng, size)

    def generate_small(self, rng) -> gen.Bundle:
        return gen.lookup(rng, 16, conflict=0.25)

    def closed_form(self, bundle):
        return expected.lookup_counts(bundle)


class Oracle(Workload):
    """`cqacount_oracle` on small instances; a quarter of them also carry
    conflicts in a relation the query does not use."""

    name = "oracle"
    budgets = {"base": 1, "2x": 2}  # multiplier of every family's repair budget

    def cases(self, seed: int) -> list[Case]:
        by_size = []
        for size, k in self.budgets.items():
            def rng(family, i):
                return gen.rng_for(self.name, seed, size, family, i)

            corpus = [self._corpus(size, rng("corpus", i), 128 * k) for i in range(60)]
            emp = [self._employee(size, rng("employee", i), 6 + k) for i in range(9)]
            gadgets = [self._gadget(size, rng("gadget", i), 256 * k) for i in range(3)]
            plain = corpus[:45] + emp[:6] + gadgets
            noisy = corpus[45:] + emp[6:]
            for case in noisy:
                case.bundle = gen.with_outside_conflicts(case.bundle, NOISE_BLOCKS)
                case.refusable = True
            order = []  # every fourth case is a refusable one
            for i, case in enumerate(noisy):
                order += plain[3 * i: 3 * i + 3] + [case]
            by_size.append(order)
        return interleave(*by_size)

    @staticmethod
    def _corpus(size: str, rng, budget: int) -> Case:
        """A query in Cparsimony with an instance of exactly `budget` repairs."""
        while True:
            text, schema = gen.random_query(rng)
            if not classify.in_cparsimony(queries.parse_query(text)).in_cparsimony:
                continue
            for _ in range(10):
                bundle = gen.random_instance(rng, schema, budget)
                if bundle.repair_space() == budget:
                    return Case(size, "corpus", text, bundle)

    @staticmethod
    def _employee(size: str, rng, conflicts: int) -> Case:
        return Case(size, "employee", gen.EMPLOYEE_QUERY,
                    gen.employee_exact(rng, employees=10, departments=4, conflicts=conflicts))

    @staticmethod
    def _gadget(size: str, rng, budget: int) -> Case:
        n = 3
        triples = gen.matching_triples(rng, n, budget)
        db = instances.build_3dm_instance(triples)
        schema = [(s.name, s.arity, s.key_width) for s in db.schema.values()]
        text = queries.serialize_query(instances.threedm_query())
        return Case(size, "gadget", text, gen.bundle_from_facts(schema, db.facts),
                    info={"n": n, "matching": expected.has_perfect_matching(triples, n)})

    def prepare(self, case: Case):
        q = queries.parse_query(case.query)
        return queries.make_free(q, q.bound_vars), q.free_vars, instances.load_bundle(case.path)

    def run(self, prepared):
        full, group_vars, db = prepared
        return evaluate.cqacount_oracle(full, group_vars, db, cap=CAP)

    def expect(self, case: Case, prepared):
        """A predicate on the answer.  Queries in Cparsimony must match the
        parsimonious route (and the closed form for the employee shape); the
        gadget's single group reaches n + 1 exactly when a perfect matching
        exists."""
        q = queries.parse_query(case.query)
        db = prepared[2]
        checks = []
        if classify.in_cparsimony(q).in_cparsimony:
            fast = evaluate.cqacount_parsimonious(q, db)
            checks.append(lambda answer: answer == fast)
        if case.family == "employee":
            closed = expected.employee_counts(case.bundle)
            checks.append(lambda answer: answer == closed)
        if case.family == "gadget":
            checks.append(lambda answer: _gadget_ok(answer, **case.info))
        return lambda answer: bool(checks) and all(check(answer) for check in checks)


def _gadget_ok(answer, n: int, matching: bool) -> bool:
    """One group; its upper bound is n + 1 exactly when a matching exists."""
    if len(answer) != 1:
        return False
    (a,) = answer
    top = a.upper == n + 1 if matching else a.upper <= n
    return top and 1 <= a.lower <= a.upper


class Classify(Workload):
    """Round trip through the text format, then both class-membership
    tests, on random queries of 1-8 atoms (2-16 at twice the size).  Atom
    counts are spread evenly over the corpus; everything else is random."""

    name = "classify"
    per_size = 400

    def cases(self, seed: int) -> list[Case]:
        by_size = [
            [
                Case(size, "query", gen.random_query(
                    gen.rng_for(self.name, seed, size, i), max_vars=8, scale=k,
                    atoms=k * (1 + i % 8))[0])
                for i in range(self.per_size)
            ]
            for size, k in (("base", 1), ("2x", 2))
        ]
        return interleave(*by_size)

    def prepare(self, case: Case):
        return queries.parse_query(case.query)

    def run(self, q):
        again = queries.parse_query(queries.serialize_query(q))
        return again, classify.in_cparsimony(again), classify.in_cforest(again)

    def expect(self, case: Case, q):
        """Every timed run must equal a reference run that satisfies the
        class invariants: the round trip is exact, Cforest is inside
        Cparsimony, and the returned id-set passes `is_id_set`."""
        ref = self.run(q)
        again, report, forest = ref
        ok = (
            again == q
            and report.in_cforest == forest
            and (not forest or report.in_cparsimony)
            and (report.id_set is None or classify.is_id_set(again, report.id_set)[0])
            and report.in_cparsimony == (report.id_set is not None)
        )
        return lambda result: ok and result == ref


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Employee(), Lookup(), Oracle(), Classify())
}
