import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqa
import support
from cqa import cli
from cqa.cli import main
from cqa.evaluate import certain_answers
from cqa.instances import DatabaseInstance, Fact, build_3dm_instance, load_bundle, save_bundle
from cqa.queries import parse_query, serialize_query


def write_query(tmp_path, q, name="query.cq"):
    path = tmp_path / name
    path.write_text(serialize_query(q) + "\n")
    return str(path)


def employee_bundle(tmp_path):
    target = tmp_path / "employee"
    save_bundle(support.employee_db(), target)
    return str(target)


def test_classify_two_component_json(tmp_path, capsys):
    path = write_query(tmp_path, support.two_component_query())
    assert main(["classify", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cparsimony"] is True
    assert data["id_set"] == ["v", "x"]
    assert data["acyclic"] is True
    assert data["strong_attacks"] == []
    assert data["violation"] is None


def test_classify_square_share_reports_violation(tmp_path, capsys):
    path = write_query(tmp_path, support.square_share_query())
    assert main(["classify", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cparsimony"] is False
    assert data["violation"]["atom"]


def test_classify_matching_pairs_reports_violation_path(tmp_path, capsys):
    path = write_query(tmp_path, support.matching_pairs_query())
    assert main(["classify", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cparsimony"] is False
    assert data["violation"]["atom"]
    assert data["violation"]["path"]


def test_classify_widen_pair_table(tmp_path, capsys):
    path = write_query(tmp_path, support.widen_pair_query())
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "cparsimony: yes" in out
    assert "cforest: no" in out


def test_classify_parse_error_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.cq"
    path.write_text("q(z) :- R(x |  .")
    assert main(["classify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    path.write_text("q() :- R(x, ).")
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == "error: expected a term but found ')' at offset 12\n"


def test_classify_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.cq")]) == 2


def test_count_both_modes_agree(tmp_path, capsys):
    qpath = write_query(tmp_path, support.employee_query())
    db = employee_bundle(tmp_path)
    assert main(["count", "--db", db, "--query", qpath, "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert out.count("A\t1\t3") == 2
    assert out.count("B\t1\t3") == 2
    assert "# parsimonious" in out and "# oracle" in out


def test_count_both_modes_disagree_is_exit_1(tmp_path, capsys, monkeypatch):
    # an oracle that loses group B: both tables are still printed, then the error
    oracle = cli.cqacount_oracle
    monkeypatch.setattr(cli, "cqacount_oracle", lambda *args: frozenset(
        a for a in oracle(*args) if a.group != ("B",)))
    qpath = write_query(tmp_path, support.employee_query())
    db = employee_bundle(tmp_path)
    assert main(["count", "--db", db, "--query", qpath, "--mode", "both"]) == 1
    out, err = capsys.readouterr()
    assert out == "# parsimonious\nA\t1\t3\nB\t1\t3\n# oracle\nA\t1\t3\n"
    assert err == "error: parsimonious and oracle results disagree\n"
    assert main(["count", "--db", db, "--query", qpath, "--mode", "both", "--json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["agree"] is False
    assert err == "error: parsimonious and oracle results disagree\n"


def test_count_json_output(tmp_path, capsys):
    qpath = write_query(tmp_path, support.employee_query())
    db = employee_bundle(tmp_path)
    assert main(["count", "--db", db, "--query", qpath, "--mode", "parsimonious", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [
        {"group": ["A"], "m": 1, "n": 3},
        {"group": ["B"], "m": 1, "n": 3},
    ]


def test_count_refuses_outside_class(tmp_path, capsys):
    qpath = write_query(tmp_path, support.lookup_pair_query())
    target = tmp_path / "pair"
    save_bundle(support.lookup_pair_db(), target)
    code = main(["count", "--db", str(target), "--query", qpath, "--mode", "parsimonious"])
    assert code == 1
    err = capsys.readouterr().err
    assert "not in Cparsimony" in err and "strong attack" in err


def test_count_oracle_cap_refusal(tmp_path, capsys):
    qpath = write_query(tmp_path, support.employee_query())
    db = employee_bundle(tmp_path)
    assert main(["count", "--db", db, "--query", qpath, "--mode", "oracle", "--cap", "2"]) == 1
    assert "4 repairs" in capsys.readouterr().err


def test_count_cap_env_var(tmp_path, capsys, monkeypatch):
    qpath = write_query(tmp_path, support.employee_query())
    db = employee_bundle(tmp_path)
    monkeypatch.setenv("CQA_CAP", "2")
    assert main(["count", "--db", db, "--query", qpath, "--mode", "oracle"]) == 1
    monkeypatch.setenv("CQA_CAP", "100")
    capsys.readouterr()
    assert main(["count", "--db", db, "--query", qpath, "--mode", "oracle"]) == 0
    monkeypatch.setenv("CQA_CAP", "junk")
    assert main(["count", "--db", db, "--query", qpath, "--mode", "oracle"]) == 2


def test_negative_cap_is_exit_2(tmp_path, capsys, monkeypatch):
    qpath = write_query(tmp_path, support.employee_query())
    db = employee_bundle(tmp_path)
    assert main(["count", "--db", db, "--query", qpath, "--mode", "oracle", "--cap", "-5"]) == 2
    err = capsys.readouterr().err
    assert "must not be negative, got -5" in err and "refused" not in err
    monkeypatch.setenv("CQA_CAP", "-1")
    assert main(["count", "--db", db, "--query", qpath, "--mode", "oracle"]) == 2
    assert main(["repairs", "--db", db]) == 2
    assert "must not be negative, got -1" in capsys.readouterr().err


def test_repairs_negative_limit_is_exit_2(tmp_path, capsys):
    db = employee_bundle(tmp_path)
    assert main(["repairs", "--db", db, "--limit", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--limit must not be negative, got -3" in captured.err
    assert main(["repairs", "--db", db, "--limit", "0"]) == 0
    assert capsys.readouterr().out == "4 repairs\n"


def test_count_tsv_escapes_tabs_and_newlines(tmp_path, capsys):
    qpath = tmp_path / "q.cq"
    qpath.write_text("q(z) :- R(x | z).\n")
    root = tmp_path / "db"
    root.mkdir()
    (root / "schema.txt").write_text("R arity=2 key=1\n")
    (root / "R.csv").write_text('k1,"b\tc"\nk2,"e\nf"\n', newline="")
    assert main(["count", "--db", str(root), "--query", str(qpath), "--mode", "parsimonious"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert rows == [["b\\tc", "1", "1"], ["e\\nf", "1", "1"]]


def test_repairs_cap_flag(tmp_path, capsys, monkeypatch):
    db = employee_bundle(tmp_path)
    assert main(["repairs", "--db", db, "--cap", "3"]) == 1
    assert "4 repairs exceed the cap of 3" in capsys.readouterr().err
    monkeypatch.setenv("CQA_CAP", "2")
    assert main(["repairs", "--db", db, "--cap", "4"]) == 0  # the flag wins over CQA_CAP
    assert capsys.readouterr().out.count("repair ") == 4
    assert main(["repairs", "--db", db, "--cap", "1", "--limit", "2"]) == 0
    assert capsys.readouterr().out.count("repair ") == 2
    assert main(["repairs", "--db", db, "--cap", "-1"]) == 2
    assert "must not be negative, got -1" in capsys.readouterr().err


def test_count_empty_database(tmp_path, capsys):
    qpath = write_query(tmp_path, support.employee_query())
    root = tmp_path / "empty"
    root.mkdir()
    (root / "schema.txt").write_text("E arity=3 key=1\nD arity=2 key=1\n")
    assert main(["count", "--db", str(root), "--query", qpath, "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert "\t" not in out  # no data rows


def test_count_unknown_relation_is_exit_2(tmp_path, capsys):
    qpath = write_query(tmp_path, support.chain_query())
    db = employee_bundle(tmp_path)
    assert main(["count", "--db", db, "--query", qpath, "--mode", "oracle"]) == 2


def test_graph_attack_kind(tmp_path, capsys):
    path = write_query(tmp_path, support.two_component_query())
    assert main(["graph", path, "--kind", "attack"]) == 0
    out = capsys.readouterr().out
    assert '"R" -> "T";' in out and '"S" -> "T";' in out
    assert out.startswith("digraph attack_graph {")


def test_graph_other_kinds(tmp_path, capsys):
    path = write_query(tmp_path, support.two_component_query())
    assert main(["graph", path, "--kind", "query"]) == 0
    assert '"v" -- "w";' in capsys.readouterr().out
    assert main(["graph", path, "--kind", "fuxman"]) == 0
    assert "digraph fuxman_graph" in capsys.readouterr().out


def test_fd_closure_listing(tmp_path, capsys):
    reduced = support.without(support.four_atom_fd_query(), ["T"])
    path = write_query(tmp_path, reduced)
    assert main(["fd", path, "--lhs", "y"]) == 0
    assert capsys.readouterr().out.strip() == "u x y z1"


def test_fd_empty_lhs_gives_free_closure(tmp_path, capsys):
    path = write_query(tmp_path, support.employee_query())
    assert main(["fd", path]) == 0
    assert capsys.readouterr().out.strip() == "z"
    assert main(["fd", path, "--lhs", "x"]) == 0
    assert capsys.readouterr().out.strip() == "x y z"


def test_fd_unknown_variable(tmp_path, capsys):
    path = write_query(tmp_path, support.employee_query())
    assert main(["fd", path, "--lhs", "nope"]) == 2


def test_repairs_dump(tmp_path, capsys):
    db = employee_bundle(tmp_path)
    assert main(["repairs", "--db", db]) == 0
    out = capsys.readouterr().out
    assert out.startswith("4 repairs")
    assert out.count("repair ") == 4
    assert main(["repairs", "--db", db, "--limit", "2"]) == 0
    assert capsys.readouterr().out.count("repair ") == 2


def test_gen3dm_roundtrip(tmp_path, capsys):
    triples = tmp_path / "triples.txt"
    triples.write_text("# matching instance\na d f\na e g\nb e g\n")
    out_dir = tmp_path / "gadget"
    assert main(["gen3dm", str(triples), "--out", str(out_dir)]) == 0
    assert load_bundle(out_dir) == build_3dm_instance(support.MATCHING_TRIPLES)
    capsys.readouterr()
    assert main([
        "count", "--db", str(out_dir), "--query", str(out_dir / "query.cq"), "--mode", "oracle",
    ]) == 0
    assert capsys.readouterr().out.strip() == "c\t1\t3"


def test_gen3dm_bad_triples(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a d\n")
    assert main(["gen3dm", str(bad), "--out", str(tmp_path / "out")]) == 2
    overlapping = tmp_path / "overlap.txt"
    overlapping.write_text("a a f\n")
    assert main(["gen3dm", str(overlapping), "--out", str(tmp_path / "out2")]) == 2


def _run_cli(*args, **env):
    """`python -m cqa.cli` in a subprocess that imports the `cqa` these tests
    import: its source directory goes first on PYTHONPATH.  Keyword
    arguments are added to the child's environment."""
    path = [str(Path(cqa.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "cqa.cli", *args], capture_output=True, text=True,
        env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


def test_module_invocation(tmp_path):
    path = write_query(tmp_path, support.employee_query())
    proc = _run_cli("classify", str(path), "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cparsimony"] is True


def test_count_non_utf8_csv_is_exit_2(tmp_path):
    qpath = write_query(tmp_path, support.employee_query())
    db = employee_bundle(tmp_path)
    with open(f"{db}/D.csv", "ab") as fh:
        fh.write(b"Sales,\xff\n")
    proc = _run_cli("count", "--db", db, "--query", qpath, "--mode", "parsimonious")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "D.csv:5:" in proc.stderr and "UTF-8" in proc.stderr


def test_count_oversized_csv_field_is_exit_2(tmp_path):
    # the csv module refuses fields over 131,072 characters by default
    qpath = write_query(tmp_path, support.employee_query())
    db = employee_bundle(tmp_path)
    with open(f"{db}/D.csv", "a", encoding="utf-8") as fh:
        fh.write("Sales," + "x" * 200_000 + "\n")
    proc = _run_cli("count", "--db", db, "--query", qpath, "--mode", "parsimonious")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "D.csv:5:" in proc.stderr and "field larger than field limit" in proc.stderr


def test_count_non_utf8_schema_is_exit_2(tmp_path):
    qpath = write_query(tmp_path, support.employee_query())
    db = employee_bundle(tmp_path)
    with open(f"{db}/schema.txt", "ab") as fh:
        fh.write(b"# caf\xe9\n")
    proc = _run_cli("count", "--db", db, "--query", qpath)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "schema.txt:3:" in proc.stderr


def test_a_directory_in_place_of_a_csv_is_exit_2(tmp_path, capsys):
    # a missing CSV is an empty relation, but a path there that cannot be
    # read as a file is an input error, not an empty relation
    root = tmp_path / "db"
    (root / "R.csv").mkdir(parents=True)
    (root / "schema.txt").write_text("R arity=2 key=1\n")
    qpath = write_query(tmp_path, parse_query("q(x) :- R(x | y)."))
    assert main(["count", "--db", str(root), "--query", qpath]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert str(root / "R.csv") in captured.err


def test_a_dangling_symlink_in_place_of_a_csv_is_exit_2(tmp_path, capsys):
    # a link to a missing file is not a missing CSV: reading it is an input error
    root = tmp_path / "db"
    root.mkdir()
    (root / "R.csv").symlink_to(tmp_path / "missing.csv")
    (root / "schema.txt").write_text("R arity=2 key=1\n")
    qpath = write_query(tmp_path, parse_query("q(x) :- R(x | y)."))
    assert main(["count", "--db", str(root), "--query", qpath, "--mode", "parsimonious"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert str(root / "R.csv") in captured.err


def test_a_schema_number_too_long_for_int_is_exit_2(tmp_path, capsys):
    # past `int`'s digit limit, an arity is an input error naming its line
    root = tmp_path / "db"
    root.mkdir()
    (root / "schema.txt").write_text("# one relation\nR arity=" + "9" * 5000 + " key=1\n")
    qpath = write_query(tmp_path, parse_query("q(x) :- R(x | y)."))
    assert main(["count", "--db", str(root), "--query", qpath, "--mode", "parsimonious"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert f"{root / 'schema.txt'}:2: " in captured.err


def test_count_internal_error_is_exit_3(tmp_path, capsys, monkeypatch):
    import importlib

    evaluate_module = importlib.import_module("cqa.evaluate")
    counter = evaluate_module.Counter
    # every per-group count two short, of the certain and of the other plain answers alike
    monkeypatch.setattr(
        evaluate_module, "Counter", lambda groups: counter({g: n - 2 for g, n in counter(groups).items()})
    )
    qpath = write_query(tmp_path, support.employee_query())
    db = employee_bundle(tmp_path)
    assert main(["count", "--db", db, "--query", qpath, "--mode", "parsimonious"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: inconsistent parsimonious bounds [-1, -1] for group ('A',)\n"


# Full-string goldens: a strong edge (lookup pair), two components and a
# violation path (matching pairs).
GRAPH_GOLDENS = {
    ("lookup_pair_query", "attack"): """\
digraph attack_graph {
  "R";
  "S";
  "R" -> "S" [style=bold];
}
""",
    ("lookup_pair_query", "fuxman"): """\
digraph fuxman_graph {
  "R";
  "S";
  "R" -> "S";
}
""",
    ("lookup_pair_query", "query"): """\
graph query_graph {
  "x";
  "y";
  "x" -- "y";
}
""",
    ("two_component_query", "attack"): """\
digraph attack_graph {
  "P";
  "R";
  "S";
  "T";
  "R" -> "T";
  "S" -> "T";
}
""",
    ("two_component_query", "fuxman"): """\
digraph fuxman_graph {
  "P";
  "R";
  "S";
  "T";
  "R" -> "T";
  "S" -> "T";
}
""",
    ("two_component_query", "query"): """\
graph query_graph {
  "v";
  "w";
  "x";
  "y1";
  "y2";
  "y3";
  "v" -- "w";
  "x" -- "y1";
  "x" -- "y2";
  "y1" -- "y2";
  "y1" -- "y3";
  "y2" -- "y3";
}
""",
    ("matching_pairs_query", "attack"): """\
digraph attack_graph {
  "R1";
  "R2";
  "S1";
  "S2";
  "Z";
}
""",
    ("matching_pairs_query", "fuxman"): """\
digraph fuxman_graph {
  "R1";
  "R2";
  "S1";
  "S2";
  "Z";
  "R1" -> "R2";
  "R1" -> "S1";
  "R1" -> "S2";
  "R2" -> "R1";
  "R2" -> "S1";
  "R2" -> "S2";
  "S1" -> "R1";
  "S1" -> "R2";
  "S1" -> "S2";
  "S2" -> "R1";
  "S2" -> "R2";
  "S2" -> "S1";
}
""",
    ("matching_pairs_query", "query"): """\
graph query_graph {
  "x1";
  "x2";
  "y";
  "x1" -- "y";
  "x2" -- "y";
}
""",
}

CLASSIFY_GOLDENS = {
    "lookup_pair_query": (
        """\
acyclic: yes
strong attacks: R -> S
id-set: none
cparsimony: no
cforest: no
violation: none
""",
        {
            "acyclic": True,
            "strong_attacks": [["R", "S"]],
            "id_set": None,
            "cparsimony": False,
            "cforest": False,
            "violation": None,
        },
    ),
    "two_component_query": (
        """\
acyclic: yes
strong attacks: none
id-set: v x
cparsimony: yes
cforest: no
violation: none
""",
        {
            "acyclic": True,
            "strong_attacks": [],
            "id_set": ["v", "x"],
            "cparsimony": True,
            "cforest": False,
            "violation": None,
        },
    ),
    "matching_pairs_query": (
        """\
acyclic: yes
strong attacks: none
id-set: none
cparsimony: no
cforest: no
violation: path y - x2 reaches an id-set variable from notkey(R1) avoiding key(R1) and frozen variables
""",
        {
            "acyclic": True,
            "strong_attacks": [],
            "id_set": None,
            "cparsimony": False,
            "cforest": False,
            "violation": {"atom": "R1", "path": ["y", "x2"]},
        },
    ),
}


@pytest.mark.parametrize("name,kind", sorted(GRAPH_GOLDENS))
def test_graph_golden(tmp_path, capsys, name, kind):
    path = write_query(tmp_path, getattr(support, name)())
    assert main(["graph", path, "--kind", kind]) == 0
    assert capsys.readouterr().out == GRAPH_GOLDENS[name, kind]


@pytest.mark.parametrize("name", sorted(CLASSIFY_GOLDENS))
def test_classify_golden(tmp_path, capsys, name):
    text, data = CLASSIFY_GOLDENS[name]
    path = write_query(tmp_path, getattr(support, name)())
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out == text
    assert main(["classify", path, "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(data, indent=2) + "\n"


def test_classify_non_utf8_query_is_exit_2(tmp_path):
    path = tmp_path / "q.cq"
    path.write_bytes(b"# caf\xe9\nq(z) :- R(z).\n")
    proc = _run_cli("classify", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "q.cq:1:" in proc.stderr and "0xe9" in proc.stderr


def test_gen3dm_non_utf8_triples_is_exit_2(tmp_path):
    triples = tmp_path / "triples.txt"
    triples.write_bytes(b"a d f\na e g\nb \xe9 g\n")
    proc = _run_cli("gen3dm", str(triples), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "triples.txt:3:" in proc.stderr


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=60),
        st.text(alphabet="qRSxyz(),|.:-' #\n\xe9", max_size=60).map(lambda s: s.encode("latin-1")),
    )
)
def test_classify_any_query_bytes_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "q.cq"
        path.write_bytes(data)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["classify", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_repairs_limit_ignores_cap(tmp_path, capsys, monkeypatch):
    db = employee_bundle(tmp_path)
    monkeypatch.setenv("CQA_CAP", "2")
    assert main(["repairs", "--db", db, "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("4 repairs\n") and out.count("repair ") == 1
    assert main(["repairs", "--db", db]) == 1
    assert "4 repairs exceed the cap of 2" in capsys.readouterr().err


def test_a_repair_count_too_long_for_str_exits_cleanly(tmp_path):
    # 2^14300 repairs has 4,305 digits, over the 4,300 that `str` converts
    root = tmp_path / "db"
    root.mkdir()
    (root / "schema.txt").write_text("R arity=2 key=1\n")
    (root / "R.csv").write_text("".join(f"k{i},a\nk{i},b\n" for i in range(14_300)))
    qpath = write_query(tmp_path, parse_query("q(v) :- R(k | v)."))
    for mode in ("oracle", "both"):
        proc = _run_cli("count", "--db", str(root), "--query", qpath, "--mode", mode, "--cap", "9")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "refused: at least 2^14300 repairs exceed the cap of 9\n"
    proc = _run_cli("repairs", "--db", str(root), "--limit", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["at least 2^14300 repairs", "repair 1:", "  R(k0, a)"]
    assert len(lines) == 2 + 14_300 and lines[-1] == "  R(k9999, a)"


def test_a_value_stdout_cannot_encode_is_exit_2(tmp_path):
    # an ASCII stdout cannot print `é`: one error line naming it, no traceback;
    # `count` writes all of its output or none, while `repairs` streams and
    # keeps what it wrote; JSON escapes every non-ASCII character, so it answers
    root = tmp_path / "db"
    root.mkdir()
    (root / "schema.txt").write_text("R arity=2 key=1\n")
    (root / "R.csv").write_text("k1,\u00e9\nk2,z\n", encoding="utf-8")
    count = ("count", "--db", str(root), "--query",
             write_query(tmp_path, parse_query("q(z) :- R(x | z).")), "--mode")
    for args in ((*count, "parsimonious"), (*count, "both"), ("repairs", "--db", str(root))):
        proc = _run_cli(*args, PYTHONIOENCODING="ascii")
        assert (proc.returncode, proc.stderr) == (
            2, "error: cannot write '\\xe9' in the encoding ascii\n"), args
        assert (proc.stdout == "") == (args[0] == "count"), (args, proc.stdout)
    proc = _run_cli(*count, "both", "--json", PYTHONIOENCODING="ascii")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["parsimonious"][1] == {"group": ["\u00e9"], "m": 1, "n": 1}


@settings(max_examples=150, deadline=None)
@given(
    schema=st.lists(
        st.one_of(
            st.just("R arity=2 key=1"),
            st.text(alphabet="R arity=key0123-_#\t", max_size=24),
        ),
        max_size=3,
    ),
    rows=st.one_of(
        st.binary(max_size=80),
        st.text(alphabet='ab,"\r\n\t\x00\xe9 ', max_size=80).map(lambda s: s.encode("latin-1")),
    ),
)
def test_count_any_bundle_bytes_exits_cleanly(schema, rows):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "q.cq").write_text("q(z) :- R(x | z).\n")
        (root / "db").mkdir()
        (root / "db" / "schema.txt").write_text("\n".join(schema) + "\n", encoding="utf-8")
        (root / "db" / "R.csv").write_bytes(rows)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["count", "--db", str(root / "db"), "--query", str(root / "q.cq")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# Full-string goldens for `cqa repairs`: dump order, dedup and block order.
EMPLOYEE_REPAIRS = """\
4 repairs
repair 1:
  D(HR, A)
  D(IT, A)
  D(MIS, B)
  E(Anny, F, HR)
  E(Dolores, F, IT)
  E(Lucy, F, MIS)
  E(Suzy, F, HR)
repair 2:
  D(HR, A)
  D(IT, A)
  D(MIS, B)
  E(Anny, F, IT)
  E(Dolores, F, IT)
  E(Lucy, F, MIS)
  E(Suzy, F, HR)
repair 3:
  D(HR, A)
  D(IT, B)
  D(MIS, B)
  E(Anny, F, HR)
  E(Dolores, F, IT)
  E(Lucy, F, MIS)
  E(Suzy, F, HR)
repair 4:
  D(HR, A)
  D(IT, B)
  D(MIS, B)
  E(Anny, F, IT)
  E(Dolores, F, IT)
  E(Lucy, F, MIS)
  E(Suzy, F, HR)
"""

UNSORTED_REPAIRS = """\
6 repairs
repair 1:
  R(B, 9)
  R(a, 1)
  R(b, 1)
  S(x)
  S(y)
  T(p)
repair 2:
  R(B, 9)
  R(a, 1)
  R(b, 1)
  S(x)
  S(y)
  T(q)
repair 3:
  R(B, 9)
  R(a, 1)
  R(b, 10)
  S(x)
  S(y)
  T(p)
repair 4:
  R(B, 9)
  R(a, 1)
  R(b, 10)
  S(x)
  S(y)
  T(q)
repair 5:
  R(B, 9)
  R(a, 1)
  R(b, 2)
  S(x)
  S(y)
  T(p)
repair 6:
  R(B, 9)
  R(a, 1)
  R(b, 2)
  S(x)
  S(y)
  T(q)
"""


def unsorted_bundle(tmp_path):
    """Relations declared out of order, `R.csv` rows out of order with one
    duplicate, a value sorting as text ("10" < "2") and a key-width-0 relation."""
    root = tmp_path / "unsorted"
    root.mkdir()
    (root / "schema.txt").write_text("S arity=1 key=1\nR arity=2 key=1\nT arity=1 key=0\n")
    (root / "R.csv").write_text("b,2\na,1\nb,1\na,1\nB,9\nb,10\n")
    (root / "S.csv").write_text("y\nx\n")
    (root / "T.csv").write_text("q\np\n")
    return str(root)


def _dump_head(dump: str, repairs: int) -> str:
    """The count line and the first `repairs` repairs of a full dump."""
    parts = dump.split("repair ")
    return "repair ".join(parts[: repairs + 1])


@pytest.mark.parametrize("bundle,golden", [
    (employee_bundle, EMPLOYEE_REPAIRS),
    (unsorted_bundle, UNSORTED_REPAIRS),
])
def test_repairs_dump_golden(tmp_path, capsys, bundle, golden):
    db = bundle(tmp_path)
    assert main(["repairs", "--db", db]) == 0
    assert capsys.readouterr().out == golden
    assert main(["repairs", "--db", db, "--limit", "2"]) == 0
    assert capsys.readouterr().out == _dump_head(golden, 2)


def test_schema_declaring_a_relation_twice_is_exit_2(tmp_path, capsys):
    db = employee_bundle(tmp_path)
    with open(f"{db}/schema.txt", "a") as fh:
        fh.write("E arity=3 key=1\n")
    assert main(["repairs", "--db", db]) == 2
    assert capsys.readouterr().err == "error: relation E declared twice\n"


@pytest.mark.parametrize("env", ["junk", "-1"])
def test_cap_is_validated_only_when_the_oracle_runs(tmp_path, capsys, monkeypatch, env):
    qpath = write_query(tmp_path, support.employee_query())
    db = employee_bundle(tmp_path)
    monkeypatch.setenv("CQA_CAP", env)
    assert main(["count", "--db", db, "--query", qpath, "--mode", "parsimonious"]) == 0
    assert capsys.readouterr().out == "A\t1\t3\nB\t1\t3\n"
    for mode in ("oracle", "both"):
        assert main(["count", "--db", db, "--query", qpath, "--mode", mode]) == 2
        assert "CQA_CAP" in capsys.readouterr().err


# Full-string goldens for `cqa count`: TSV and JSON bodies, the per-mode
# headers of `--mode both` and its `agree` key.
EMPLOYEE_COUNT_TSV = "A\t1\t3\nB\t1\t3\n"

EMPLOYEE_COUNT_JSON = """\
[
  {
    "group": [
      "A"
    ],
    "m": 1,
    "n": 3
  },
  {
    "group": [
      "B"
    ],
    "m": 1,
    "n": 3
  }
]
"""

EMPLOYEE_BOTH_TSV = "# parsimonious\nA\t1\t3\nB\t1\t3\n# oracle\nA\t1\t3\nB\t1\t3\n"

EMPLOYEE_BOTH_JSON = """\
{
  "parsimonious": [
    {
      "group": [
        "A"
      ],
      "m": 1,
      "n": 3
    },
    {
      "group": [
        "B"
      ],
      "m": 1,
      "n": 3
    }
  ],
  "oracle": [
    {
      "group": [
        "A"
      ],
      "m": 1,
      "n": 3
    },
    {
      "group": [
        "B"
      ],
      "m": 1,
      "n": 3
    }
  ],
  "agree": true
}
"""

CHAIN_COUNT_TSV = "g1\t1\t3\ng2\t1\t3\n"

CHAIN_COUNT_JSON = """\
[
  {
    "group": [
      "g1"
    ],
    "m": 1,
    "n": 3
  },
  {
    "group": [
      "g2"
    ],
    "m": 1,
    "n": 3
  }
]
"""

CHAIN_BOTH_TSV = "# parsimonious\ng1\t1\t3\ng2\t1\t3\n# oracle\ng1\t1\t3\ng2\t1\t3\n"

CHAIN_BOTH_JSON = """\
{
  "parsimonious": [
    {
      "group": [
        "g1"
      ],
      "m": 1,
      "n": 3
    },
    {
      "group": [
        "g2"
      ],
      "m": 1,
      "n": 3
    }
  ],
  "oracle": [
    {
      "group": [
        "g1"
      ],
      "m": 1,
      "n": 3
    },
    {
      "group": [
        "g2"
      ],
      "m": 1,
      "n": 3
    }
  ],
  "agree": true
}
"""

COUNT_GOLDENS = {
    ("employee", "parsimonious", False): EMPLOYEE_COUNT_TSV,
    ("employee", "parsimonious", True): EMPLOYEE_COUNT_JSON,
    ("employee", "oracle", False): EMPLOYEE_COUNT_TSV,
    ("employee", "oracle", True): EMPLOYEE_COUNT_JSON,
    ("employee", "both", False): EMPLOYEE_BOTH_TSV,
    ("employee", "both", True): EMPLOYEE_BOTH_JSON,
    ("chain", "parsimonious", False): CHAIN_COUNT_TSV,
    ("chain", "parsimonious", True): CHAIN_COUNT_JSON,
    ("chain", "oracle", False): CHAIN_COUNT_TSV,
    ("chain", "oracle", True): CHAIN_COUNT_JSON,
    ("chain", "both", False): CHAIN_BOTH_TSV,
    ("chain", "both", True): CHAIN_BOTH_JSON,
}

COUNT_CASES = {
    "employee": (support.employee_query, support.employee_db),
    "chain": (support.chain_query, support.chain_db),
    "lookup_pair": (support.lookup_pair_query, support.lookup_pair_db),
}


def count_args(tmp_path, name, mode):
    query, db = COUNT_CASES[name]
    target = tmp_path / name
    save_bundle(db(), target)
    return ["count", "--db", str(target), "--query", write_query(tmp_path, query()), "--mode", mode]


@pytest.mark.parametrize("name,mode,as_json", sorted(COUNT_GOLDENS))
def test_count_golden(tmp_path, capsys, name, mode, as_json):
    args = count_args(tmp_path, name, mode) + (["--json"] if as_json else [])
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out == COUNT_GOLDENS[name, mode, as_json]
    assert err == ""


@pytest.mark.parametrize("as_json", [False, True])
def test_count_refusal_golden(tmp_path, capsys, as_json):
    args = count_args(tmp_path, "lookup_pair", "parsimonious") + (["--json"] if as_json else [])
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "refused: query not in Cparsimony: strong attack R -> S\n"


def test_count_answers_a_400_atom_query(tmp_path, capsys):
    # the certainty check walks its 400 elimination steps without recursing per step
    q = parse_query("q() :- " + ", ".join(f"R{i}(x{i})" for i in range(400)) + ".")
    db = DatabaseInstance([a.relation for a in q.atoms], [Fact(a.name, ("a",)) for a in q.atoms])
    save_bundle(db, tmp_path / "deep")
    args = ["count", "--db", str(tmp_path / "deep"), "--query", write_query(tmp_path, q)]
    assert main([*args, "--mode", "both"]) == 0
    out, err = capsys.readouterr()
    assert out == "# parsimonious\n1\t1\n# oracle\n1\t1\n"
    assert err == ""
    assert certain_answers(q, db).tuples == support.intersection_certain(q, db) == {()}


@pytest.mark.parametrize("body, head", [
    ("R{i}(x{i} | x{j})", "x0"),  # a chain: every atom attacks every later one
    ("S{i}(y | x{i})", "y"),  # a star: no attacks, one bound variable per atom
])
def test_count_and_classify_answer_400_atom_chain_and_star(tmp_path, capsys, body, head):
    # the query analysis costs one closure and one BFS per atom, not one per pair
    atoms = ", ".join(body.format(i=i, j=i + 1) for i in range(400))
    q = parse_query(f"q({head}) :- {atoms}.")
    facts = [Fact(a.name, ("a", "a")) for a in q.atoms]
    save_bundle(DatabaseInstance([a.relation for a in q.atoms], facts), tmp_path / "long")
    qpath = write_query(tmp_path, q)
    assert main(["count", "--db", str(tmp_path / "long"), "--query", qpath, "--mode", "both"]) == 0
    out, err = capsys.readouterr()
    assert out == "# parsimonious\na\t1\t1\n# oracle\na\t1\t1\n"
    assert err == ""
    assert main(["classify", qpath]) == 0
    out, err = capsys.readouterr()
    assert out == (
        "acyclic: yes\nstrong attacks: none\nid-set: \ncparsimony: yes\ncforest: yes\n"
        "violation: none\n"
    )
    assert err == ""


@pytest.mark.parametrize("name", ["employee", "forward", "blocks", "joined", "partkey"])
def test_shipped_bundles_count_as_their_goldens(capsys, name):
    # the goldens CI diffs the installed script against, as TSV and JSON, here through main
    root = Path(__file__).resolve().parents[1] / "examples" / name
    for flags, golden in (((), "count-both.tsv"), (("--json",), "count-both.json")):
        assert main(["count", "--db", str(root), "--query", str(root / "query.cq"),
                     "--mode", "both", *flags]) == 0
        assert capsys.readouterr().out == (root / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["employee", "forward", "blocks", "joined", "partkey"])
def test_shipped_bundles_classify_as_their_goldens(capsys, name):
    # the classify goldens CI diffs the installed script against, as text and JSON
    root = Path(__file__).resolve().parents[1] / "examples" / name
    for flags, golden in (((), "classify.txt"), (("--json",), "classify.json")):
        assert main(["classify", str(root / "query.cq"), *flags]) == 0
        assert capsys.readouterr().out == (root / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["employee", "forward", "blocks", "joined", "partkey"])
@pytest.mark.parametrize("kind", ["attack", "query", "fuxman"])
def test_shipped_bundles_graph_as_their_goldens(capsys, name, kind):
    # the graph goldens CI diffs the installed script against
    root = Path(__file__).resolve().parents[1] / "examples" / name
    assert main(["graph", str(root / "query.cq"), "--kind", kind]) == 0
    assert capsys.readouterr().out == (root / f"graph-{kind}.dot").read_text(encoding="utf-8")


def _with_bom(path: Path) -> None:
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


@pytest.mark.parametrize("names", [("E.csv",), ("schema.txt", "E.csv", "D.csv", "query.cq")])
def test_files_starting_with_a_byte_order_mark_read_as_without(tmp_path, capsys, names):
    # a BOM kept in E.csv would make the first key "\ufeffAnny" and answer A 2 4
    db = tmp_path / "employee"
    shutil.copytree(Path(__file__).resolve().parents[1] / "examples" / "employee", db)
    for name in names:
        _with_bom(db / name)
    assert main(["count", "--db", str(db), "--query", str(db / "query.cq"), "--mode", "both"]) == 0
    assert capsys.readouterr().out == EMPLOYEE_BOTH_TSV


def test_invalid_byte_after_a_byte_order_mark_names_its_byte_and_line(tmp_path, capsys):
    path = tmp_path / "q.cq"
    path.write_bytes(b"# one\n# two \xff\nq(z) :- R(z).\n")
    _with_bom(path)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:2: byte 0xff is not valid UTF-8\n"
