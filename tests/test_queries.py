import collections

import pytest

import generators
import support
from cqa.evaluate import evaluate
from cqa.graphs import joined
from cqa.queries import (
    Atom,
    ConjunctiveQuery,
    QueryError,
    QuerySyntaxError,
    RelationSignature,
    Term,
    make_bound,
    make_free,
    parse_query,
    query_graph,
    serialize_query,
    substitute,
)


def test_parse_serialize_roundtrip_canonical():
    text = "q(z1, z2) :- R(x, y | z1), S(x | y), T(y | z2)."
    q = parse_query(text)
    assert serialize_query(q) == text
    assert q.free_vars == ("z1", "z2")
    assert q.atom("R").relation == RelationSignature("R", 3, 2)
    assert q.atom("S").relation == RelationSignature("S", 2, 1)


def test_parse_is_whitespace_insensitive_and_skips_comments():
    text = """
    # grouping on the second column
    q( z1 ,z2 ):-R(x,
        y|z1),S(x|y),  # join on x
        T(y|z2) .
    """
    assert parse_query(text) == parse_query("q(z1, z2) :- R(x, y | z1), S(x | y), T(y | z2).")


def test_parse_all_key_atom_with_and_without_pipe():
    with_pipe = parse_query("q(z3) :- T(z1, z2, z3 |), R(z1 | z2).")
    without = parse_query("q(z3) :- T(z1, z2, z3), R(z1 | z2).")
    assert with_pipe == without
    assert with_pipe.atom("T").relation.key_width == 3
    # canonical form drops the redundant pipe
    assert serialize_query(with_pipe) == "q(z3) :- T(z1, z2, z3), R(z1 | z2)."


def test_parse_zero_key_atom():
    q = parse_query("q() :- R(| x, y).")
    assert q.atom("R").relation.key_width == 0
    assert serialize_query(q) == "q() :- R(| x, y)."


def test_parse_constants_are_quoted():
    q = parse_query("q(z) :- E(x | 'F', y), D(y | z).")
    gender = q.atom("E").args[1]
    assert not gender.is_var and gender.symbol == "F"
    # unquoted F would be a variable instead
    q2 = parse_query("q(z) :- E(x | F, y), D(y | z).")
    assert q2.atom("E").args[1].is_var


@pytest.mark.parametrize(
    "bad",
    [
        "q(z) :- R(x | z), R(z | x).",  # self-join
        "q(z, w) :- R(x | z).",  # dangling free variable
        "q(z, z) :- R(x | z).",  # duplicate head variable
        "q(z) :- R(x | z)",  # missing final period
        "q(z) :- R(x || z).",  # stray pipe
        "q(z) :- R().",  # zero arity
        "q(z) : R(x | z).",  # bad arrow
    ],
)
def test_parse_rejections(bad):
    with pytest.raises(QueryError):
        parse_query(bad)


@pytest.mark.parametrize(
    "text,message",
    [
        ("q() :- R(x), S(y), R(z), S(w).", "self-join on relation R is not supported"),
        ("q() :- R(x), S(y), S(z), R(w).", "self-join on relation S is not supported"),
        ("q(a, a) :- R(a), R(b).", "self-join on relation R is not supported"),
        ("q(b, a, x) :- R(x).", "free variable(s) ['a', 'b'] occur in no atom"),
        ("q(a) :- .", "free variable(s) ['a'] occur in no atom"),
    ],
)
def test_query_errors_name_the_first_repeated_relation_and_every_dangling_variable(text, message):
    # a query's own checks, which the reference parser shares: their order and texts
    with pytest.raises(QueryError) as err:
        parse_query(text)
    assert str(err.value) == message


def test_atom_key_nonkey_partition_with_repeats_and_constants():
    # R(c, x, x, y | y, z, c): key vars {x, y}, non-key vars {z}
    sig = RelationSignature("R", 7, 4)
    atom = Atom(
        sig,
        (
            Term.const("c"),
            Term.var("x"),
            Term.var("x"),
            Term.var("y"),
            Term.var("y"),
            Term.var("z"),
            Term.const("c"),
        ),
    )
    assert atom.key_vars == {"x", "y"}
    assert atom.nonkey_vars == {"z"}
    assert atom.variables == {"x", "y", "z"}
    assert atom.key_vars | atom.nonkey_vars == atom.variables
    assert not atom.key_vars & atom.nonkey_vars


def test_make_free_adds_to_head_keeping_body():
    q = parse_query("q(z) :- R(x | y), Rp(y | z).")
    widened = make_free(q, ("x",))
    assert set(widened.free_vars) == {"x", "z"}
    assert widened.atoms == q.atoms
    assert make_free(q, ()) == q
    both = make_free(make_free(q, ("x",)), ("y",))
    assert both == make_free(q, ("x", "y"))


def test_make_free_rejects_nonbound():
    q = parse_query("q(z) :- R(x | y, z).")
    with pytest.raises(QueryError):
        make_free(q, ("z",))
    with pytest.raises(QueryError):
        make_free(q, ("nope",))
    with pytest.raises(QueryError):
        make_free(q, ("x", "x"))


def test_make_bound_shrinks_head():
    q = parse_query("q(z, x, y) :- R(x | y, z).")
    assert make_bound(q, ("x", "y")).free_vars == ("z",)
    assert make_bound(q, ()) == q
    with pytest.raises(QueryError):
        make_bound(q, ("w",))


def test_make_bound_inverts_make_free():
    q = parse_query("q(z) :- R(x | y, z), S(y | v).")
    assert make_bound(make_free(q, ("x", "v")), ("x", "v")) == q


def test_substitute_replaces_occurrences():
    q = parse_query("q(x, y, z) :- E(x | 'F', y), D(y | z).")
    fixed = substitute(q, ("z",), ("A",))
    assert fixed.free_vars == ("x", "y")
    last = fixed.atom("D").args[1]
    assert not last.is_var and last.symbol == "A"
    assert substitute(q, (), ()) == q
    with pytest.raises(QueryError):
        substitute(q, ("z",), ("A", "B"))
    with pytest.raises(QueryError):
        substitute(parse_query("q(z) :- R(x | z)."), ("x",), ("A",))


def test_substitute_agrees_with_answer_filtering():
    db = support.employee_db()
    q = parse_query("q(x, y, z) :- E(x | 'F', y), D(y | z).")
    fixed = substitute(q, ("z",), ("A",))
    filtered = {t[:2] for t in evaluate(q, db).tuples if t[2] == "A"}
    assert evaluate(fixed, db).tuples == filtered


@pytest.mark.parametrize("value", ["it's", "two\nlines"])
def test_serialize_refuses_a_constant_it_cannot_write(value):
    q = substitute(parse_query("q(z) :- R(x | z)."), ("z",), (value,))
    with pytest.raises(QueryError) as exc:
        serialize_query(q)
    assert str(exc.value) == f"atom R: constant {value!r} holds a quote or a newline"


def _named_query(name="q", relation="R", x="x", z="z"):
    atom = Atom(RelationSignature(relation, 2, 1), (Term.var(x), Term.var(z)))
    return ConjunctiveQuery((atom,), (z,), name=name)


@pytest.mark.parametrize("query, message", [
    (_named_query(name="my q"), "query name 'my q' is not an identifier"),
    (_named_query(name=""), "query name '' is not an identifier"),
    (_named_query(relation="R x"), "relation 'R x' is not an identifier"),
    (_named_query(relation="R("), "relation 'R(' is not an identifier"),
    (_named_query(z="x y"), "variable 'x y' is not an identifier"),
    (_named_query(x="1z"), "variable '1z' is not an identifier"),
    (_named_query(x="é"), "variable 'é' is not an identifier"),
])
def test_serialize_refuses_a_name_it_cannot_write(query, message):
    # such a name would serialize to text that parse_query rejects
    with pytest.raises(QueryError) as exc:
        serialize_query(query)
    assert str(exc.value) == message
    assert serialize_query(_named_query(name="_q1", relation="R_2", x="_", z="z9")) == (
        "_q1(z9) :- R_2(_ | z9).")


def test_query_graph_two_component_example():
    g = query_graph(support.two_component_query())
    assert g.vertices == {"x", "y1", "y2", "y3", "v", "w"}
    assert g.edges == {
        ("x", "y1"),
        ("x", "y2"),
        ("y1", "y2"),
        ("y1", "y3"),
        ("y2", "y3"),
        ("v", "w"),
    }


def test_query_graph_single_atom_clique():
    g = query_graph(parse_query("q() :- R(x, y | v)."))
    assert g.edges == {("x", "y"), ("v", "x"), ("v", "y")}


def test_query_graph_guarded_cycle_example():
    g = query_graph(support.guarded_cycle_query())
    assert g.edges == {("x", "y"), ("v", "y")}


def test_query_graph_vertices_are_exactly_bound_vars():
    q = parse_query("q(z) :- R(x | y, z), S(w | w).")
    g = query_graph(q)
    assert g.vertices == set(q.bound_vars)
    assert all(a != b for a, b in g.edges)
    assert all(b in g.successors(a) and a in g.successors(b) for a, b in g.edges)


def test_query_graph_dot_is_deterministic():
    dot = joined(query_graph(support.two_component_query()).dot("query_graph"))
    assert dot.startswith("graph query_graph {")
    assert '  "v" -- "w";' in dot


def test_bound_vars_first_occurrence_order():
    q = parse_query("q(z) :- S(y, v | z), R(x | y).")
    assert q.bound_vars == ("y", "v", "x")


def test_without_drops_atoms_and_dangling_frees():
    q = support.four_atom_fd_query()
    sub = support.without(q, ["T"])
    assert [a.name for a in sub.atoms] == ["R", "S", "U"]
    assert sub.free_vars == ("z1",)  # z2 occurred only in T


def test_empty_body_query_roundtrip():
    q = ConjunctiveQuery((), ())
    assert serialize_query(q) == "q() :- ."
    assert parse_query("q() :- .") == q


PARSE_ERROR_FAMILIES = (
    "unexpected character", "expected '", "expected a term", "self-join", "occur in no atom",
)


def test_parse_equals_reference_on_random_and_mutated_texts():
    families = collections.Counter()
    for text in generators.mutated_query_texts(seed=13, queries=800, mutants=10):
        expected = support.parse_outcome(support.reference_parse_query, text)
        assert support.parse_outcome(parse_query, text) == expected, text
        if len(expected) == 2:
            families.update(f for f in PARSE_ERROR_FAMILIES if f in expected[1])
    assert all(families[f] >= 50 for f in PARSE_ERROR_FAMILIES), families


def test_a_term_of_unknown_kind_is_refused_and_lazy_fields_read_off_the_class():
    with pytest.raises(QueryError, match="^bad term kind 'atom'$"):
        Term("atom", "x")
    lazy = ConjunctiveQuery.bound_vars  # the descriptor itself, its docstring kept
    assert lazy is ConjunctiveQuery.__dict__["bound_vars"]
    assert lazy.__doc__ == "Non-head variables, in first-occurrence order."
    assert parse_query("q(z) :- R(x | y, z).").bound_vars == ("x", "y")
