"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` and returns plain data: a
`Bundle` (schema plus rows, written as a CSV bundle the package loads
during set-up) or query text.  The same seed gives byte-identical bundles
and query corpora; `fingerprint` hashes exactly the bytes that are written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

EMPLOYEE_QUERY = "q(z) :- E(x | 'F', y), D(y | z)."
LOOKUP_QUERY = "q(z) :- E(x | z)."

# Random queries and instances follow the repository's property-test
# generators, with up to six blocks per relation instead of three.
DOMAIN = ("a", "b", "c", "d")


def rng_for(*parts: object) -> random.Random:
    """Independent stream per (workload, seed, family, size, index); string
    seeds hash the same way in every process."""
    return random.Random(":".join(str(p) for p in parts))


@dataclass
class Bundle:
    """Schema `(name, arity, key_width)` triples plus rows per relation."""

    schema: list[tuple[str, int, int]]
    rows: dict[str, list[tuple[str, ...]]] = field(default_factory=dict)

    def files(self) -> dict[str, bytes]:
        out = {
            "schema.txt": "".join(
                f"{name} arity={arity} key={key}\n" for name, arity, key in self.schema
            ).encode()
        }
        for name, _, _ in self.schema:
            buf = io.StringIO()
            csv.writer(buf).writerows(self.rows.get(name, ()))
            out[f"{name}.csv"] = buf.getvalue().encode()
        return out

    def write(self, root: Path) -> None:
        root.mkdir(parents=True)
        for name, data in self.files().items():
            (root / name).write_bytes(data)

    def blocks(self, name: str) -> dict[tuple[str, ...], set[tuple[str, ...]]]:
        """Key value -> set of distinct non-key tuples for one relation."""
        key = next(k for n, _, k in self.schema if n == name)
        out: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
        for row in self.rows.get(name, ()):
            out.setdefault(row[:key], set()).add(row[key:])
        return out

    def repair_space(self) -> int:
        space = 1
        for name, _, _ in self.schema:
            for rest in self.blocks(name).values():
                space *= len(rest)
        return space


def fingerprint(bundles: list[Bundle], texts: list[str]) -> str:
    h = hashlib.sha256()
    for b in bundles:
        for name, data in sorted(b.files().items()):
            h.update(name.encode() + b"\0" + data + b"\0")
    for t in texts:
        h.update(t.encode() + b"\0")
    return h.hexdigest()


# --- employee shape: q(z) :- E(x | 'F', y), D(y | z) ------------------------

def _chosen(rng: random.Random, n: int, share: float) -> set[int]:
    """Exactly round(share * n) of range(n), so instances of one size differ
    in which keys are affected, not in how many."""
    return set(rng.sample(range(n), round(share * n)))


def employee(rng: random.Random, employees: int, conflict: float = 0.1,
             departments: int | None = None, groups: int = 8) -> Bundle:
    """Employees x work in department y with a gender (60% 'F'); departments
    map to a group z.  A `conflict` share of E keys and of D keys get a
    second, different fact."""
    n_dept = departments if departments is not None else max(2, employees // 10)
    zs = [f"g{i}" for i in range(groups)]
    female = _chosen(rng, employees, 0.6)

    def dept() -> str:
        return f"d{rng.randrange(n_dept)}"

    e_rows: list[tuple[str, ...]] = []
    twice = _chosen(rng, employees, conflict)
    for i in range(employees):
        opts = [("F" if i in female else "M", dept())]
        if i in twice:
            while (other := (rng.choice("FM"), dept())) == opts[0]:
                pass
            opts.append(other)
        e_rows += [(f"e{i}", *o) for o in opts]
    d_rows: list[tuple[str, ...]] = []
    twice = _chosen(rng, n_dept, conflict)
    for j in range(n_dept):
        opts = [rng.choice(zs)]
        if j in twice:
            while (other := rng.choice(zs)) == opts[0]:
                pass
            opts.append(other)
        d_rows += [(f"d{j}", z) for z in opts]
    return Bundle([("E", 3, 1), ("D", 2, 1)], {"E": e_rows, "D": d_rows})


def employee_exact(rng: random.Random, employees: int, departments: int,
                   conflicts: int, groups: int = 3) -> Bundle:
    """Small employee instance with exactly 2**conflicts repairs."""
    zs = [f"g{i}" for i in range(groups)]
    keys = [("E", i) for i in range(employees)] + [("D", j) for j in range(departments)]
    twice = set(rng.sample(keys, conflicts))
    e_rows: list[tuple[str, ...]] = []
    for i in range(employees):
        first = ("F", f"d{rng.randrange(departments)}")
        e_rows.append((f"e{i}", *first))
        if ("E", i) in twice:
            while (other := (rng.choice("FM"), f"d{rng.randrange(departments)}")) == first:
                pass
            e_rows.append((f"e{i}", *other))
    d_rows: list[tuple[str, ...]] = []
    for j in range(departments):
        first = rng.choice(zs)
        d_rows.append((f"d{j}", first))
        if ("D", j) in twice:
            d_rows.append((f"d{j}", rng.choice([z for z in zs if z != first])))
    return Bundle([("E", 3, 1), ("D", 2, 1)], {"E": e_rows, "D": d_rows})


# --- many-groups lookup: q(z) :- E(x | z) -----------------------------------

def lookup(rng: random.Random, keys: int, conflict: float = 0.1) -> Bundle:
    """About four keys x per group z, so the number of groups grows with
    size; a `conflict` share of keys map to two groups."""
    n_groups = max(1, keys // 4)
    twice = _chosen(rng, keys, conflict)
    rows: list[tuple[str, ...]] = []
    for i in range(keys):
        opts = [f"z{rng.randrange(n_groups)}"]
        if i in twice:
            while (other := f"z{rng.randrange(n_groups)}") == opts[0]:
                pass
            opts.append(other)
        rows += [(f"x{i}", z) for z in opts]
    return Bundle([("E", 2, 1)], {"E": rows})


# --- random queries and instances ---------------------------------------------

def _term(t: tuple[str, str]) -> str:
    kind, symbol = t
    return f"'{symbol}'" if kind == "const" else symbol


def random_query(rng: random.Random, max_vars: int = 6, scale: int = 1,
                 atoms: int | None = None) -> tuple[str, list[tuple[str, int, int]]]:
    """A self-join-free query over R1..Rn as (text, schema): one to five
    atoms unless `atoms` fixes the count; `scale` multiplies the drawn
    number of variables."""
    n_atoms = atoms if atoms is not None else rng.randint(1, 5)
    pool = [f"v{i}" for i in range(1, scale * rng.randint(1, max_vars) + 1)]
    body: list[tuple[str, int, list[tuple[str, str]]]] = []
    for i in range(n_atoms):
        arity = rng.randint(1, 3)
        key_width = 0 if arity > 1 and rng.random() < 0.04 else rng.randint(1, arity)
        args = [
            ("const", rng.choice(("a", "b"))) if rng.random() < 0.05
            else ("var", rng.choice(pool))
            for _ in range(arity)
        ]
        body.append((f"R{i + 1}", key_width, args))
    used: list[str] = []
    for _, _, args in body:
        for kind, symbol in args:
            if kind == "var" and symbol not in used:
                used.append(symbol)
    head = [v for v in used if rng.random() < 0.35]
    parts = []
    for name, key_width, args in body:
        keys = ", ".join(_term(t) for t in args[:key_width])
        rest = ", ".join(_term(t) for t in args[key_width:])
        if key_width == len(args):
            inner = keys
        elif key_width == 0:
            inner = f"| {rest}"
        else:
            inner = f"{keys} | {rest}"
        parts.append(f"{name}({inner})")
    schema = [(name, len(args), key_width) for name, key_width, args in body]
    return f"q({', '.join(head)}) :- {', '.join(parts)}.", schema


def random_instance(rng: random.Random, schema: list[tuple[str, int, int]],
                    max_repairs: int) -> Bundle:
    """One to six blocks per relation; blocks double while the repair space
    stays within `max_repairs`."""
    rows: dict[str, list[tuple[str, ...]]] = {}
    space = 1
    for name, arity, key_width in schema:
        keys: set[tuple[str, ...]] = set()
        wanted = rng.randint(1, 6)
        for _ in range(20):
            if len(keys) >= wanted:
                break
            keys.add(tuple(rng.choice(DOMAIN) for _ in range(key_width)))
        out = rows.setdefault(name, [])
        for key in sorted(keys):
            width = arity - key_width
            want = 2 if width > 0 and space * 2 <= max_repairs and rng.random() < 0.55 else 1
            rest: set[tuple[str, ...]] = set()
            for _ in range(20):
                if len(rest) >= want:
                    break
                rest.add(tuple(rng.choice(DOMAIN) for _ in range(width)))
            space *= len(rest)
            out += [key + suffix for suffix in sorted(rest)]
    return Bundle(list(schema), rows)


def with_outside_conflicts(bundle: Bundle, blocks: int) -> Bundle:
    """Add a relation no query uses, with `blocks` two-fact key conflicts."""
    rows = dict(bundle.rows)
    rows["Xnoise"] = [(f"k{i}", v) for i in range(blocks) for v in ("p", "q")]
    return Bundle(bundle.schema + [("Xnoise", 2, 1)], rows)


# --- 3-dimensional-matching gadget -------------------------------------------

def matching_triples(rng: random.Random, n: int, max_repairs: int) -> list[tuple[str, str, str]]:
    """A planted perfect matching over n values per coordinate, plus random
    extra triples while the gadget's repair space stays within budget.

    Each value v heads one R_i block and one S_i block with deg(v) members,
    so the space is the product of deg(v)**2."""
    coords = [[f"{c}{i}" for i in range(n)] for c in "abc"]
    perm1, perm2 = rng.sample(range(n), n), rng.sample(range(n), n)
    triples = {(coords[0][i], coords[1][perm1[i]], coords[2][perm2[i]]) for i in range(n)}

    def space(ts: set[tuple[str, str, str]]) -> int:
        deg: dict[str, int] = {}
        for t in ts:
            for v in t:
                deg[v] = deg.get(v, 0) + 1
        out = 1
        for d in deg.values():
            out *= d * d
        return out

    for _ in range(4 * n):
        extra = tuple(rng.choice(c) for c in coords)
        if extra not in triples and space(triples | {extra}) <= max_repairs:
            triples.add(extra)
    return sorted(triples)


def bundle_from_facts(schema: list[tuple[str, int, int]], facts) -> Bundle:
    """Rows from objects with `.relation` and `.values` (package facts)."""
    rows: dict[str, list[tuple[str, ...]]] = {}
    for f in facts:
        rows.setdefault(f.relation, []).append(tuple(f.values))
    return Bundle(schema, rows)
