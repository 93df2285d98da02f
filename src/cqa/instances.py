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
import os
import re
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import AnalysisRefusal, InputError
from .queries import ConjunctiveQuery, QueryError, RelationSignature, parse_query

DEFAULT_REPAIR_CAP = 1_000_000


class SchemaError(InputError, ValueError):
    pass


class BundleError(InputError, ValueError):
    pass


def _count_text(count: int) -> str:
    """`count` in decimal, or the power of two it reaches when `str` cannot convert it."""
    try:
        return str(count)
    except ValueError:  # over 4,300 digits, by default
        return f"at least 2^{count.bit_length() - 1}"


class RepairSpaceOverflow(AnalysisRefusal):
    def __init__(self, count: int, cap: int):
        super().__init__(f"{_count_text(count)} repairs exceed the cap of {cap}")
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


Row = tuple[str, ...]


def _schema(sigs: Iterable[RelationSignature]) -> dict[str, RelationSignature]:
    """Signatures by name, in name order; a name declared twice is a SchemaError."""
    out: dict[str, RelationSignature] = {}
    for sig in sigs:
        if sig.name in out:
            raise SchemaError(f"relation {sig.name} declared twice")
        out[sig.name] = sig
    return dict(sorted(out.items()))


_Part = tuple[tuple[Row, ...], tuple[tuple[Row, ...], ...]]


class _Partition(Mapping[str, _Part]):
    """Per relation of an instance, in schema order: the rows of its single-fact
    blocks, then its blocks of two or more facts, the only ones in which
    repairs differ; each in key order.  A relation is grouped when it is
    first read, so a relation that no reader asks for is never grouped."""

    def __init__(self, schema: dict[str, RelationSignature], rows: dict[str, tuple[Row, ...]]):
        self._schema, self._rows = schema, rows
        self._done: dict[str, _Part] = {}

    def __getitem__(self, name: str) -> _Part:
        part = self._done.get(name)
        if part is None:
            key = itemgetter(slice(0, self._schema[name].key_width))
            blocks = [tuple(rows) for _, rows in itertools.groupby(self._rows[name], key)]
            part = self._done[name] = (tuple(rows[0] for rows in blocks if len(rows) == 1),
                                       tuple(rows for rows in blocks if len(rows) > 1))
        return part

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema)

    def __len__(self) -> int:
        return len(self._schema)


class DatabaseInstance:
    """Immutable set of facts over a fixed schema, indexed by key.

    Stored as rows (value tuples), which the evaluation layer reads
    directly; `Fact` objects are built only where the API hands them out.
    """

    schema: dict[str, RelationSignature]  # in name order
    _rows: dict[str, tuple[Row, ...]]  # per relation, in schema order: sorted distinct rows

    def __init__(self, schema: Iterable[RelationSignature], facts: Iterable[Fact] = ()):
        sigs = _schema(schema)
        rows: defaultdict[str, set[Row]] = defaultdict(set)
        for fact in facts:
            rows[fact.relation].add(fact.values)
        bad = [Fact(name, values) for name, got in rows.items() for values in got
               if name not in sigs or len(values) != sigs[name].arity]
        if bad:  # name the first in fact order
            fact = min(bad)
            sig = sigs.get(fact.relation)
            raise SchemaError(f"fact over undeclared relation {fact.relation}" if sig is None else
                              f"fact {fact} has {len(fact.values)} columns, expected {sig.arity}")
        self.schema = sigs
        self._rows = {name: tuple(sorted(rows[name])) for name in sigs}

    @classmethod
    def _from_rows(cls, schema, rows) -> DatabaseInstance:
        """An instance from per-relation rows that are already sorted, distinct
        and checked against `schema` (in name order); nothing is sorted or
        validated again."""
        db = cls.__new__(cls)
        db.schema, db._rows = schema, rows
        return db

    @cached_property
    def _parts(self) -> _Partition:
        return _Partition(self.schema, self._rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DatabaseInstance)
            and self.schema == other.schema
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((tuple(self.schema.items()), tuple(self._rows.items())))

    def __repr__(self) -> str:
        size = sum(map(len, self._rows.values()))
        return f"DatabaseInstance({len(self.schema)} relations, {size} facts)"

    @cached_property
    def facts(self) -> tuple[Fact, ...]:
        """Every fact, in fact order (relation, then values)."""
        return tuple(Fact(name, row) for name, rows in self._rows.items() for row in rows)

    def relation_facts(self, name: str) -> tuple[Fact, ...]:
        return tuple(Fact(name, row) for row in self._rows.get(name, ()))

    def block(self, name: str, key: tuple[str, ...]) -> tuple[Fact, ...]:
        sig = self.schema.get(name)
        rows = self._rows[name] if sig is not None and len(key) == sig.key_width else ()
        end = bisect_right(rows, key, key=itemgetter(slice(0, len(key))))
        return tuple(Fact(name, row) for row in rows[bisect_left(rows, key):end])

    def blocks(self) -> tuple[Block, ...]:
        return tuple(
            Block(name, key, tuple(Fact(name, row) for row in rows))
            for name, sig in self.schema.items()
            for key, rows in itertools.groupby(self._rows[name], itemgetter(slice(0, sig.key_width)))
        )

    def is_consistent(self) -> bool:
        return not any(conflicts for _, conflicts in self._parts.values())


def repair_count(db: DatabaseInstance) -> int:
    return math.prod(len(rows) for _, conflicts in db._parts.values() for rows in conflicts)


def _picks(blocks: Sequence[Collection[Sequence]], cap: int) -> Iterator[list[tuple]]:
    """Every pick of one member per block, lexicographically by block order and
    member index, as one tuple of picks per group of `blocks` (its blocks in
    order).  Refuses more than `cap` picks outright."""
    members = [block for group in blocks for block in group]
    count = math.prod(map(len, members))
    if count > cap:
        raise RepairSpaceOverflow(count, cap)
    ends = itertools.accumulate(map(len, blocks), initial=0)
    cuts = [slice(*span) for span in itertools.pairwise(ends)]
    for choice in itertools.product(*members):
        yield [choice[cut] for cut in cuts]


def enumerate_repairs(
    db: DatabaseInstance, cap: int = DEFAULT_REPAIR_CAP
) -> Iterator[DatabaseInstance]:
    """All repairs, lexicographically by block order and member index.

    Refuses spaces larger than `cap` outright: sampling would break the
    tight-bound guarantee the enumeration exists to provide.  Each repair
    keeps rows only, one per block; picked in key order, they are already sorted.
    """
    for rows in _picks([sorted((*zip(singles), *conflicts)) for singles, conflicts in db._parts.values()], cap):
        yield DatabaseInstance._from_rows(db.schema, dict(zip(db.schema, rows)))


def is_repair_of(candidate: DatabaseInstance, db: DatabaseInstance) -> bool:
    return (
        candidate.schema == db.schema
        and all(set(rows) <= set(db._rows[name]) for name, rows in candidate._rows.items())
        and candidate.is_consistent()
        and sum(map(len, candidate._rows.values())) == sum(map(len, itertools.chain(*db._parts.values())))
    )


# --- CSV bundles ----------------------------------------------------------

_SCHEMA_LINE = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s+arity=(?P<arity>\d+)\s+key=(?P<key>\d+)$")


def _read_utf8(path: Path) -> str:
    """File contents as text, without one leading byte-order mark; a byte
    that is not UTF-8 is a BundleError naming its line."""
    data = path.read_bytes().removeprefix(b"\xef\xbb\xbf")
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
    sigs: dict[str, RelationSignature] = {}
    for lineno, raw in enumerate(_read_utf8(schema_file).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SCHEMA_LINE.match(line)
        if m is None:
            raise BundleError(f"{schema_file}:{lineno}: cannot parse {line!r}")
        try:
            sig = RelationSignature(m["name"], int(m["arity"]), int(m["key"]))
        except QueryError as exc:  # an arity of 0, or a key wider than the arity
            raise BundleError(f"{schema_file}:{lineno}: {exc}") from None
        except ValueError:  # more digits than `int` converts
            raise BundleError(f"{schema_file}:{lineno}: arity or key has too many digits") from None
        if sig.name in sigs:
            raise BundleError(f"{schema_file}:{lineno}: relation {sig.name} declared twice")
        sigs[sig.name] = sig
    # distinct rows in file order, so `sorted` merges the file's ascending runs
    rows: dict[str, dict[Row, None]] = {}
    for sig in sigs.values():
        got = rows.setdefault(sig.name, {})
        data = root / f"{sig.name}.csv"
        if not os.path.lexists(data):  # a relation without a CSV is empty
            continue
        reader = csv.reader(io.StringIO(_read_utf8(data), newline=""))
        try:
            for rowno, row in enumerate(reader, 1):
                if len(row) != sig.arity:
                    raise BundleError(f"{data}:{rowno}: {len(row)} columns for arity {sig.arity}")
                got[tuple(row)] = None
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise BundleError(f"{data}:{reader.line_num}: {exc}") from None
    schema = _schema(sigs.values())
    return DatabaseInstance._from_rows(schema, {name: tuple(sorted(rows[name])) for name in schema})


def save_bundle(db: DatabaseInstance, path: str | Path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    lines = [f"{sig.name} arity={sig.arity} key={sig.key_width}" for sig in db.schema.values()]
    (root / "schema.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name in db.schema:
        with (root / f"{name}.csv").open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(db._rows[name])


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
