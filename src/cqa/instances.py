"""Database instances, key-equal blocks, repair enumeration, CSV bundles,
and the matching-gadget instance generator.

Constants are opaque strings; numeric-looking values compare as strings.
A bundle directory holds `schema.txt` (one `R arity=3 key=1` line per
relation) plus one header-less `R.csv` per relation whose first key-width
columns form the primary key.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import AnalysisRefusal, InputError
from .queries import ConjunctiveQuery, RelationSignature, parse_query

DEFAULT_REPAIR_CAP = 1_000_000


class SchemaError(InputError, ValueError):
    pass


class BundleError(InputError, ValueError):
    pass


class RepairSpaceOverflow(AnalysisRefusal):
    def __init__(self, count: int, cap: int):
        super().__init__(f"{count} repairs exceed the cap of {cap}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True, order=True)
class Fact:
    relation: str
    values: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.values)})"


@dataclass(frozen=True)
class Block:
    """All facts of one relation sharing a primary-key value."""

    relation: str
    key_values: tuple[str, ...]
    members: tuple[Fact, ...]


class DatabaseInstance:
    """Immutable set of facts over a fixed schema, indexed by key."""

    def __init__(self, schema: Iterable[RelationSignature], facts: Iterable[Fact] = ()):
        sigs: dict[str, RelationSignature] = {}
        for sig in schema:
            if sig.name in sigs:
                raise SchemaError(f"relation {sig.name} declared twice")
            sigs[sig.name] = sig
        self.schema: dict[str, RelationSignature] = dict(sorted(sigs.items()))
        canonical = sorted(set(facts))
        for fact in canonical:
            sig = self.schema.get(fact.relation)
            if sig is None:
                raise SchemaError(f"fact over undeclared relation {fact.relation}")
            if len(fact.values) != sig.arity:
                raise SchemaError(
                    f"fact {fact} has {len(fact.values)} columns, expected {sig.arity}"
                )
        self.facts: tuple[Fact, ...] = tuple(canonical)
        self._by_relation: dict[str, list[Fact]] = {name: [] for name in self.schema}
        self._blocks: dict[tuple[str, tuple[str, ...]], list[Fact]] = {}
        for fact in self.facts:
            key = fact.values[: self.schema[fact.relation].key_width]
            self._by_relation[fact.relation].append(fact)
            self._blocks.setdefault((fact.relation, key), []).append(fact)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DatabaseInstance)
            and self.schema == other.schema
            and self.facts == other.facts
        )

    def __hash__(self) -> int:
        return hash((tuple(self.schema.items()), self.facts))

    def __repr__(self) -> str:
        return f"DatabaseInstance({len(self.schema)} relations, {len(self.facts)} facts)"

    def relation_facts(self, name: str) -> tuple[Fact, ...]:
        return tuple(self._by_relation.get(name, ()))

    def block(self, name: str, key: tuple[str, ...]) -> tuple[Fact, ...]:
        return tuple(self._blocks.get((name, key), ()))

    def blocks(self) -> tuple[Block, ...]:
        return tuple(
            Block(rel, key, tuple(members))
            for (rel, key), members in sorted(self._blocks.items())
        )

    def is_consistent(self) -> bool:
        return all(len(members) == 1 for members in self._blocks.values())

    @property
    def active_domain(self) -> frozenset[str]:
        return frozenset(v for fact in self.facts for v in fact.values)


def blocks(db: DatabaseInstance) -> tuple[Block, ...]:
    return db.blocks()


def is_consistent(db: DatabaseInstance) -> bool:
    return db.is_consistent()


def repair_count(db: DatabaseInstance) -> int:
    return math.prod(len(b.members) for b in db.blocks())


def enumerate_repairs(
    db: DatabaseInstance, cap: int = DEFAULT_REPAIR_CAP
) -> Iterator[DatabaseInstance]:
    """All repairs, lexicographically by block order and member index.

    Refuses spaces larger than `cap` outright: sampling would break the
    tight-bound guarantee the enumeration exists to provide.
    """
    all_blocks = db.blocks()
    count = math.prod(len(b.members) for b in all_blocks)
    if count > cap:
        raise RepairSpaceOverflow(count, cap)
    sigs = db.schema.values()
    for choice in itertools.product(*(range(len(b.members)) for b in all_blocks)):
        yield DatabaseInstance(
            sigs, (b.members[i] for b, i in zip(all_blocks, choice))
        )


def is_repair_of(candidate: DatabaseInstance, db: DatabaseInstance) -> bool:
    return (
        candidate.schema == db.schema
        and set(candidate.facts) <= set(db.facts)
        and candidate.is_consistent()
        and len(candidate.facts) == len(db.blocks())
    )


# --- CSV bundles ----------------------------------------------------------

_SCHEMA_LINE = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s+arity=(?P<arity>\d+)\s+key=(?P<key>\d+)$")


def _read_utf8(path: Path) -> str:
    """File contents as text; a byte that is not UTF-8 is a BundleError naming its line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"x").splitlines())
        raise BundleError(
            f"{path}:{line}: byte 0x{data[exc.start]:02x} is not valid UTF-8"
        ) from None


def load_bundle(path: str | Path) -> DatabaseInstance:
    root = Path(path)
    schema_file = root / "schema.txt"
    if not schema_file.is_file():
        raise BundleError(f"{schema_file} not found")
    sigs: list[RelationSignature] = []
    for lineno, raw in enumerate(_read_utf8(schema_file).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SCHEMA_LINE.match(line)
        if m is None:
            raise BundleError(f"{schema_file}:{lineno}: cannot parse {line!r}")
        sigs.append(RelationSignature(m["name"], int(m["arity"]), int(m["key"])))
    facts: list[Fact] = []
    for sig in sigs:
        data = root / f"{sig.name}.csv"
        if not data.is_file():
            continue
        rows = csv.reader(io.StringIO(_read_utf8(data), newline=""))
        try:
            for rowno, row in enumerate(rows, 1):
                if len(row) != sig.arity:
                    raise BundleError(f"{data}:{rowno}: {len(row)} columns for arity {sig.arity}")
                facts.append(Fact(sig.name, tuple(row)))
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise BundleError(f"{data}:{rows.line_num}: {exc}") from None
    return DatabaseInstance(sigs, facts)


def save_bundle(db: DatabaseInstance, path: str | Path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    lines = [f"{sig.name} arity={sig.arity} key={sig.key_width}" for sig in db.schema.values()]
    (root / "schema.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name in db.schema:
        with (root / f"{name}.csv").open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(fact.values for fact in db.relation_facts(name))


# --- matching-gadget instances ---------------------------------------------

def build_3dm_instance(triples: Iterable[Sequence[str]]) -> DatabaseInstance:
    """Instance whose range-consistent count for the fixed matching query
    reaches n+1 exactly when the triple set contains a perfect matching.

    Each triple (a1, a2, a3) contributes R_i/S_i facts keyed a_i carrying
    the concatenated triple label; padding facts keyed bot_i with value
    `top` keep the group certain.
    """
    trips = [tuple(t) for t in triples]
    for t in trips:
        if len(t) != 3:
            raise InputError(f"triple {t} does not have three coordinates")
    coords = [set(t[i] for t in trips) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            overlap = coords[i] & coords[j]
            if overlap:
                raise InputError(
                    f"coordinate sets {i + 1} and {j + 1} share {sorted(overlap)}"
                )
    taken = set().union(*coords) | {"".join(t) for t in trips}

    def fresh(base: str) -> str:
        while base in taken:
            base += "_"
        return base

    group = fresh("c")
    top = fresh("top")
    bottoms = [fresh(f"bot{i}") for i in (1, 2, 3)]

    sigs = [RelationSignature("Z", 1, 1)]
    facts = [Fact("Z", (group,))]
    for i in (1, 2, 3):
        for side in ("R", "S"):
            sigs.append(RelationSignature(f"{side}{i}", 2, 1))
            facts.append(Fact(f"{side}{i}", (bottoms[i - 1], top)))
            for t in sorted(trips):
                facts.append(Fact(f"{side}{i}", (t[i - 1], "".join(t))))
    return DatabaseInstance(sigs, facts)


def threedm_query() -> ConjunctiveQuery:
    """The fixed query the 3-dimensional-matching instances are counted under."""
    return parse_query(
        "q(z) :- Z(z), R1(x1 | y), S1(x1 | y), R2(x2 | y), S2(x2 | y), "
        "R3(x3 | y), S3(x3 | y)."
    )
