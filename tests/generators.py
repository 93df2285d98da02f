"""Seeded random query/instance generators driving the property suites."""

import random
import re

from cqa.classify import in_cparsimony
from cqa.attacks import attack_graph
from cqa.instances import DatabaseInstance, Fact, repair_count
from cqa.queries import Atom, ConjunctiveQuery, RelationSignature, Term, serialize_query

DOMAIN = ("a", "b", "c", "d")


def random_query(rng: random.Random, max_atoms: int = 5, max_vars: int = 6,
                 const_prob: float = 0.05) -> ConjunctiveQuery:
    n_atoms = rng.randint(1, max_atoms)
    pool = [f"v{i}" for i in range(1, rng.randint(1, max_vars) + 1)]
    atoms = []
    for i in range(n_atoms):
        arity = rng.randint(1, 3)
        if arity > 1 and rng.random() < 0.04:
            key_width = 0
        else:
            key_width = rng.randint(1, arity)
        args = tuple(
            Term.const(rng.choice(("a", "b")))
            if rng.random() < const_prob
            else Term.var(rng.choice(pool))
            for _ in range(arity)
        )
        atoms.append(Atom(RelationSignature(f"R{i + 1}", arity, key_width), args))
    used: list[str] = []
    for atom in atoms:
        for term in atom.args:
            if term.is_var and term.symbol not in used:
                used.append(term.symbol)
    free = tuple(v for v in used if rng.random() < 0.35)
    return ConjunctiveQuery(tuple(atoms), free)


def random_instance(rng: random.Random, q: ConjunctiveQuery,
                    max_repairs: int = 64) -> DatabaseInstance:
    """Instance over the query's schema with a bounded repair space."""
    facts: list[Fact] = []
    space = 1
    for atom in q.atoms:
        sig = atom.relation
        keys: set[tuple[str, ...]] = set()
        blocks_wanted = rng.randint(1, 3)
        for _ in range(20):
            if len(keys) >= blocks_wanted:
                break
            keys.add(tuple(rng.choice(DOMAIN) for _ in range(sig.key_width)))
        for key in sorted(keys):
            want = 1
            nonkey_width = sig.arity - sig.key_width
            if nonkey_width > 0 and space * 2 <= max_repairs and rng.random() < 0.55:
                want = 2
            rest: set[tuple[str, ...]] = set()
            for _ in range(20):
                if len(rest) >= want:
                    break
                rest.add(tuple(rng.choice(DOMAIN) for _ in range(nonkey_width)))
            space *= len(rest)
            for suffix in sorted(rest):
                facts.append(Fact(sig.name, key + suffix))
    db = DatabaseInstance((a.relation for a in q.atoms), facts)
    assert repair_count(db) <= max_repairs
    return db


def cparsimony_corpus(seed: int, count: int, **query_kwargs):
    """(query, report) pairs classified inside Cparsimony, rejection-sampled."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = random_query(rng, **query_kwargs)
        report = in_cparsimony(q)
        if report.in_cparsimony:
            out.append((q, report))
    return out


def acyclic_corpus(seed: int, count: int, **query_kwargs):
    """Queries whose attack graph is acyclic (certain answers are defined)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = random_query(rng, **query_kwargs)
        if attack_graph(q).is_acyclic():
            out.append(q)
    return out


# Space, tab, CR, LF, comment, quote and punctuation, a backslash and a
# non-ASCII letter, plus name characters so that edits also rename.
EDIT_ALPHABET = " \t\r\n#'|,.:-()\\é" + "Rv12"
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def mutated_query_texts(seed: int, queries: int, mutants: int):
    """The serialized text of each of `queries` random queries, followed by
    `mutants` copies of it with 1-3 random edits: insert, delete or replace
    one character from EDIT_ALPHABET, or replace one name by another name
    of the same text (which makes self-joins and dangling head variables)."""
    rng = random.Random(seed)
    for _ in range(queries):
        text = serialize_query(random_query(rng, const_prob=0.2))
        yield text
        for _ in range(mutants):
            edited = text
            for _ in range(rng.randint(1, 3)):
                op = rng.randrange(4)
                if op == 0:
                    i = rng.randrange(len(edited) + 1)
                    edited = edited[:i] + rng.choice(EDIT_ALPHABET) + edited[i:]
                elif op < 3:
                    i = rng.randrange(len(edited))
                    new = rng.choice(EDIT_ALPHABET) if op == 2 else ""
                    edited = edited[:i] + new + edited[i + 1:]
                else:
                    names = list(_NAME.finditer(edited))
                    m, other = rng.choice(names), rng.choice(names).group()
                    edited = edited[:m.start()] + other + edited[m.end():]
            yield edited
