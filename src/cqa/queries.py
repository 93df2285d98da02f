"""Schemas, atoms, and self-join-free conjunctive queries.

Primary-key positions occupy the leading columns of every relation, so a
signature is just (name, arity, key_width).  All objects are immutable;
the transformation helpers (`make_free`, `make_bound`, `substitute`)
return fresh queries and never touch the atom list.

The concrete text format is::

    q(z1, z2) :- R(x, y | z1), S(x | y), T(y | z2).

The head lists the free variables.  Inside an atom, terms before ``|``
occupy key positions and the rest occupy non-key positions; ``|`` may be
omitted when every position is a key.  Constants are single-quoted and
hold neither a quote nor a newline.  ``#`` outside a constant starts a
comment that runs to the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from typing import Iterable

from .errors import InputError
from .graphs import Digraph


class QueryError(InputError, ValueError):
    """Structural invariant broken (self-join, dangling variable, ...)."""


class QuerySyntaxError(QueryError):
    pass


@dataclass(frozen=True)
class RelationSignature:
    name: str
    arity: int
    key_width: int

    def __post_init__(self):
        if self.arity < 1:
            raise QueryError(f"relation {self.name}: arity must be positive")
        if not 0 <= self.key_width <= self.arity:
            raise QueryError(
                f"relation {self.name}: key width {self.key_width} outside 0..{self.arity}"
            )


_VAR = "var"
_CONST = "const"


@dataclass(frozen=True)
class Term:
    kind: str
    symbol: str

    def __post_init__(self):
        if self.kind not in (_VAR, _CONST):
            raise QueryError(f"bad term kind {self.kind!r}")

    @classmethod
    def var(cls, name: str) -> "Term":
        return cls(_VAR, name)

    @classmethod
    def const(cls, value: str) -> "Term":
        return cls(_CONST, value)

    @property
    def is_var(self) -> bool:
        return self.kind == _VAR


@dataclass(frozen=True)
class Atom:
    """One atom of a query.  Its name and variable sets are built with it,
    since every analysis reads them: `name` (the relation's), `key_vars`,
    `nonkey_vars` (variables at non-key positions that do not also appear
    in the key) and `variables`."""

    relation: RelationSignature
    args: tuple[Term, ...]

    def __post_init__(self):
        if len(self.args) != self.relation.arity:
            raise QueryError(
                f"atom {self.relation.name}: {len(self.args)} arguments for arity "
                f"{self.relation.arity}"
            )
        key_vars = frozenset([t.symbol for t in self.key_args if t.kind == _VAR])
        variables = frozenset([t.symbol for t in self.args if t.kind == _VAR])
        self.__dict__.update(
            name=self.relation.name, key_vars=key_vars, nonkey_vars=variables - key_vars,
            variables=variables,
        )

    @property
    def key_args(self) -> tuple[Term, ...]:
        return self.args[: self.relation.key_width]

    @property
    def nonkey_args(self) -> tuple[Term, ...]:
        return self.args[self.relation.key_width :]


_VARIABLES = attrgetter("variables")


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A query.  Its `variables` are stored when it is built, and
    `bound_vars` and the atom-by-name map on first read."""

    atoms: tuple[Atom, ...]
    free_vars: tuple[str, ...] = ()
    name: str = "q"

    def __post_init__(self):
        names = [atom.name for atom in self.atoms]
        if len(set(names)) != len(names):
            name = next(n for i, n in enumerate(names) if n in names[:i])
            raise QueryError(f"self-join on relation {name} is not supported")
        if len(set(self.free_vars)) != len(self.free_vars):
            raise QueryError(f"duplicate variable in head {self.free_vars}")
        variables = frozenset().union(*map(_VARIABLES, self.atoms))
        dangling = set(self.free_vars) - variables
        if dangling:
            raise QueryError(f"free variable(s) {sorted(dangling)} occur in no atom")
        self.__dict__["variables"] = variables

    @cached_property
    def bound_vars(self) -> tuple[str, ...]:
        """Non-head variables, in first-occurrence order."""
        free = set(self.free_vars)
        return tuple(dict.fromkeys(
            t.symbol for a in self.atoms for t in a.args if t.is_var and t.symbol not in free
        ))

    @cached_property
    def _by_name(self) -> dict[str, Atom]:
        return {a.name: a for a in self.atoms}

    def atom(self, relation_name: str) -> Atom:
        a = self._by_name.get(relation_name)
        if a is None:
            raise QueryError(f"no atom for relation {relation_name}")
        return a


def _check_bound(q: ConjunctiveQuery, xs: Iterable[str]) -> tuple[str, ...]:
    """`xs` as a tuple, after checking it names distinct bound variables of q."""
    xs = tuple(xs)
    if len(set(xs)) != len(xs):
        raise QueryError(f"duplicate variable in {xs}")
    bound = set(q.bound_vars)
    bad = [x for x in xs if x not in bound]
    if bad:
        raise QueryError(f"variable(s) {bad} are not bound in {q.name}")
    return xs


def make_free(q: ConjunctiveQuery, xs: Iterable[str]) -> ConjunctiveQuery:
    """Promote the bound variables `xs` to the head (appended in order)."""
    return replace(q, free_vars=q.free_vars + _check_bound(q, xs))


def make_bound(q: ConjunctiveQuery, xs: Iterable[str]) -> ConjunctiveQuery:
    """Existentially quantify the free variables `xs`."""
    xs = set(xs)
    bad = xs - set(q.free_vars)
    if bad:
        raise QueryError(f"variable(s) {sorted(bad)} are not free in {q.name}")
    return replace(q, free_vars=tuple(v for v in q.free_vars if v not in xs))


def substitute(
    q: ConjunctiveQuery, zs: Iterable[str], cs: Iterable[str]
) -> ConjunctiveQuery:
    """Replace each free variable zs[i] by the constant cs[i]."""
    zs, cs = tuple(zs), tuple(cs)
    if len(zs) != len(cs):
        raise QueryError(f"{len(zs)} variables but {len(cs)} constants")
    if len(set(zs)) != len(zs):
        raise QueryError(f"duplicate variable in {zs}")
    free = set(q.free_vars)
    bad = [z for z in zs if z not in free]
    if bad:
        raise QueryError(f"variable(s) {bad} are not free in {q.name}")
    binding = dict(zip(zs, cs))
    atoms = tuple(
        Atom(
            a.relation,
            tuple(
                Term.const(binding[t.symbol]) if t.is_var and t.symbol in binding else t
                for t in a.args
            ),
        )
        for a in q.atoms
    )
    return replace(
        q, atoms=atoms, free_vars=tuple(v for v in q.free_vars if v not in binding)
    )


def query_graph(q: ConjunctiveQuery) -> Digraph:
    """Undirected co-occurrence graph over the bound variables."""
    bound = frozenset(q.bound_vars)
    edges: set[tuple[str, str]] = set()
    for atom in q.atoms:
        here = sorted(atom.variables & bound)
        for i, a in enumerate(here):
            for b in here[i + 1 :]:
                edges.add((a, b))
    return Digraph(bound, edges, directed=False)


# --- text format ---------------------------------------------------------

# One match per token, the whitespace and comments before it included.
# Every position matches: `eof` at the end of the text (listed before `bad`,
# so trailing whitespace cannot backtrack into it) and `bad` at any other
# character that starts no token.  A constant keeps its quotes.
_TOKEN_RE = re.compile(
    r"""(?:\s+|\#[^\n]*)*
      (?: (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<const>'[^'\n]*')
        | (?P<arrow>:-)
        | (?P<open>\() | (?P<close>\)) | (?P<comma>,) | (?P<pipe>\|) | (?P<dot>\.)
        | (?P<eof>\Z)
        | (?P<bad>.)
      )
    """,
    re.VERBOSE | re.DOTALL,
)
_TERMS = ("ident", "const")


def _expected(what: str, token: re.Match) -> QuerySyntaxError:
    kind = token.lastgroup
    value = token[kind][1:-1] if kind == "const" else token[kind]
    return QuerySyntaxError(f"expected {what} but found {value!r} at offset {token.start(kind)}")


def parse_query(text: str) -> ConjunctiveQuery:
    """The query in `text`.  The whole text is tokenized first, so an
    unexpected character anywhere wins over a syntax error before it."""
    tokens = list(_TOKEN_RE.finditer(text))
    kinds = [m.lastgroup for m in tokens]
    if "bad" in kinds:
        bad = tokens[kinds.index("bad")]
        raise QuerySyntaxError(f"unexpected character {bad['bad']!r} at offset {bad.start('bad')}")
    terms: dict[str, Term] = {}  # token text -> the one Term for it
    if kinds[0] != "ident":
        raise _expected("'ident'", tokens[0])
    if kinds[1] != "open":
        raise _expected("'('", tokens[1])
    i = 2
    head: list[str] = []
    if kinds[i] != "close":
        while True:
            if kinds[i] != "ident":
                raise _expected("'ident'", tokens[i])
            head.append(tokens[i]["ident"])
            i += 1
            if kinds[i] != "comma":
                break
            i += 1
    if kinds[i] != "close":
        raise _expected("')'", tokens[i])
    if kinds[i + 1] != "arrow":
        raise _expected("':-'", tokens[i + 1])
    i += 2
    atoms: list[Atom] = []
    if kinds[i] == "ident":
        while True:
            if kinds[i] != "ident":
                raise _expected("'ident'", tokens[i])
            if kinds[i + 1] != "open":
                raise _expected("'('", tokens[i + 1])
            name = tokens[i]["ident"]
            i += 2
            args: list[Term] = []
            width = -1  # the key width once `|` is read
            while True:  # the key terms, then the terms after `|`
                if kinds[i] in _TERMS:
                    while True:
                        kind = kinds[i]
                        if kind not in _TERMS:
                            raise _expected("a term", tokens[i])
                        symbol = tokens[i][kind]
                        term = terms.get(symbol)
                        if term is None:
                            term = terms[symbol] = (
                                Term(_VAR, symbol) if kind == "ident" else Term(_CONST, symbol[1:-1])
                            )
                        args.append(term)
                        i += 1
                        if kinds[i] != "comma":
                            break
                        i += 1
                if width >= 0 or kinds[i] != "pipe":
                    break
                width = len(args)
                i += 1
            if kinds[i] != "close":
                raise _expected("')'", tokens[i])
            i += 1
            sig = RelationSignature(name, len(args), len(args) if width < 0 else width)
            atoms.append(Atom(sig, tuple(args)))
            if kinds[i] != "comma":
                break
            i += 1
    if kinds[i] != "dot":
        raise _expected("'.'", tokens[i])
    if kinds[i + 1] != "eof":
        raise _expected("'eof'", tokens[i + 1])
    return ConjunctiveQuery(tuple(atoms), tuple(head), name=tokens[0]["ident"])


def _term_text(atom: Atom, t: Term) -> str:
    if t.is_var:
        return t.symbol
    if "'" in t.symbol or "\n" in t.symbol:
        raise QueryError(f"atom {atom.name}: constant {t.symbol!r} holds a quote or a newline")
    return f"'{t.symbol}'"


def serialize_query(q: ConjunctiveQuery) -> str:
    """Canonical form: single spaces, atoms in input order.  Refuses a name
    or a constant that the text format cannot write."""
    names = [q.name, *map(attrgetter("name"), q.atoms), *q.free_vars, *q.bound_vars]
    # ASCII Python identifiers are exactly what `_TOKEN_RE` reads as `ident`
    if not (all(map(str.isidentifier, names)) and "".join(names).isascii()):
        i = next(i for i, n in enumerate(names) if not (n.isidentifier() and n.isascii()))
        what = "query name" if i == 0 else "relation" if i <= len(q.atoms) else "variable"
        raise QueryError(f"{what} {names[i]!r} is not an identifier")
    parts = []
    for atom in q.atoms:
        k = atom.relation.key_width
        keys = ", ".join([_term_text(atom, t) for t in atom.key_args])
        rest = ", ".join([_term_text(atom, t) for t in atom.nonkey_args])
        if k == atom.relation.arity:
            inner = keys
        elif k == 0:
            inner = f"| {rest}"
        else:
            inner = f"{keys} | {rest}"
        parts.append(f"{atom.name}({inner})")
    head = f"{q.name}({', '.join(q.free_vars)})"
    body = ", ".join(parts)
    return f"{head} :- {body}." if body else f"{head} :- ."
