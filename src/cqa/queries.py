"""Schemas, atoms, and self-join-free conjunctive queries.

Primary-key positions occupy the leading columns of every relation, so a
signature is just (name, arity, key_width).  All objects are immutable;
the transformation helpers (`make_free`, `make_bound`, `substitute`)
return fresh queries and never touch the atom list.

The concrete text format is::

    q(z1, z2) :- R(x, y | z1), S(x | y), T(y | z2).

The head lists the free variables.  Inside an atom, terms before ``|``
occupy key positions and the rest occupy non-key positions; ``|`` may be
omitted when every position is a key.  Constants are single-quoted.
``#`` starts a comment line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
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
    relation: RelationSignature
    args: tuple[Term, ...]

    def __post_init__(self):
        if len(self.args) != self.relation.arity:
            raise QueryError(
                f"atom {self.relation.name}: {len(self.args)} arguments for arity "
                f"{self.relation.arity}"
            )

    @property
    def name(self) -> str:
        return self.relation.name

    @property
    def key_args(self) -> tuple[Term, ...]:
        return self.args[: self.relation.key_width]

    @property
    def nonkey_args(self) -> tuple[Term, ...]:
        return self.args[self.relation.key_width :]

    @cached_property
    def key_vars(self) -> frozenset[str]:
        return frozenset(t.symbol for t in self.key_args if t.is_var)

    @cached_property
    def nonkey_vars(self) -> frozenset[str]:
        """Variables at non-key positions that do not also appear in the key."""
        return frozenset(t.symbol for t in self.nonkey_args if t.is_var) - self.key_vars

    @cached_property
    def variables(self) -> frozenset[str]:
        return frozenset(t.symbol for t in self.args if t.is_var)


@dataclass(frozen=True)
class ConjunctiveQuery:
    atoms: tuple[Atom, ...]
    free_vars: tuple[str, ...] = ()
    name: str = "q"

    def __post_init__(self):
        seen: set[str] = set()
        for atom in self.atoms:
            if atom.name in seen:
                raise QueryError(f"self-join on relation {atom.name} is not supported")
            seen.add(atom.name)
        if len(set(self.free_vars)) != len(self.free_vars):
            raise QueryError(f"duplicate variable in head {self.free_vars}")
        occurring = frozenset().union(*(a.variables for a in self.atoms)) if self.atoms else frozenset()
        dangling = set(self.free_vars) - occurring
        if dangling:
            raise QueryError(
                f"free variable(s) {sorted(dangling)} occur in no atom"
            )

    @cached_property
    def variables(self) -> frozenset[str]:
        if not self.atoms:
            return frozenset(self.free_vars)
        return frozenset(self.free_vars).union(*(a.variables for a in self.atoms))

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

    def without(self, atoms: Iterable[Atom | str]) -> "ConjunctiveQuery":
        """Drop the given atoms; free variables no longer occurring are dropped too."""
        gone = {a if isinstance(a, str) else a.name for a in atoms}
        kept = tuple(a for a in self.atoms if a.name not in gone)
        occurring = frozenset().union(*(a.variables for a in kept)) if kept else frozenset()
        return replace(
            self,
            atoms=kept,
            free_vars=tuple(v for v in self.free_vars if v in occurring),
        )


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


class QueryGraph(Digraph):
    """Undirected co-occurrence graph over the bound variables."""

    def __init__(self, vertices: Iterable[str], edges: frozenset[tuple[str, str]]):
        super().__init__(vertices, edges, directed=False)

    def neighbors(self, v: str) -> frozenset[str]:
        return frozenset(self._succ[v])


def query_graph(q: ConjunctiveQuery) -> QueryGraph:
    bound = frozenset(q.bound_vars)
    edges: set[tuple[str, str]] = set()
    for atom in q.atoms:
        here = sorted(atom.variables & bound)
        for i, a in enumerate(here):
            for b in here[i + 1 :]:
                edges.add((a, b))
    return QueryGraph(bound, frozenset(edges))


def query_graph_dot(g: QueryGraph) -> str:
    return g.dot("query_graph")


# --- text format ---------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s+
      | \#[^\n]*
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | '(?P<const>[^'\n]*)'
      | (?P<arrow>:-)
      | (?P<punct>[(),|.])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r} at offset {pos}")
        if m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), pos))
        elif m.lastgroup == "const":
            tokens.append(("const", m.group("const"), pos))
        elif m.lastgroup == "arrow":
            tokens.append((":-", ":-", pos))
        elif m.lastgroup == "punct":
            tokens.append((m.group("punct"), m.group("punct"), pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def take(self, kind: str) -> str:
        tk, value, pos = self.tokens[self.i]
        if tk != kind:
            raise QuerySyntaxError(f"expected {kind!r} but found {value!r} at offset {pos}")
        self.i += 1
        return value

    def parse(self) -> ConjunctiveQuery:
        name = self.take("ident")
        self.take("(")
        head: list[str] = []
        if self.peek() != ")":
            head.append(self.take("ident"))
            while self.peek() == ",":
                self.take(",")
                head.append(self.take("ident"))
        self.take(")")
        self.take(":-")
        atoms: list[Atom] = []
        if self.peek() == "ident":
            atoms.append(self.atom())
            while self.peek() == ",":
                self.take(",")
                atoms.append(self.atom())
        self.take(".")
        self.take("eof")
        return ConjunctiveQuery(tuple(atoms), tuple(head), name=name)

    def term(self) -> Term:
        if self.peek() == "ident":
            return Term.var(self.take("ident"))
        if self.peek() == "const":
            return Term.const(self.take("const"))
        tk, value, pos = self.tokens[self.i]
        raise QuerySyntaxError(f"expected a term but found {value!r} at offset {pos}")

    def termlist(self) -> list[Term]:
        out: list[Term] = []
        if self.peek() in ("ident", "const"):
            out.append(self.term())
            while self.peek() == ",":
                self.take(",")
                out.append(self.term())
        return out

    def atom(self) -> Atom:
        rel = self.take("ident")
        self.take("(")
        keys = self.termlist()
        saw_pipe = self.peek() == "|"
        rest: list[Term] = []
        if saw_pipe:
            self.take("|")
            rest = self.termlist()
        self.take(")")
        args = keys + rest
        width = len(keys) if saw_pipe else len(args)
        return Atom(RelationSignature(rel, len(args), width), tuple(args))


def parse_query(text: str) -> ConjunctiveQuery:
    return _Parser(_tokenize(text)).parse()


def _term_text(t: Term) -> str:
    return t.symbol if t.is_var else f"'{t.symbol}'"


def serialize_query(q: ConjunctiveQuery) -> str:
    """Canonical form: single spaces, atoms in input order."""
    parts = []
    for atom in q.atoms:
        k = atom.relation.key_width
        keys = ", ".join(_term_text(t) for t in atom.key_args)
        rest = ", ".join(_term_text(t) for t in atom.nonkey_args)
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
