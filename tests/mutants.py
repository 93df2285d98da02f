"""Standing mutants: each one is a known fault that some test must catch.

Run from anywhere with `python tests/mutants.py`; it needs pytest and
nothing else outside the standard library.  It copies `src/`, `tests/`,
`examples/` and `pyproject.toml` into a temporary directory and checks
that the union of the named tests passes there.  Then it applies one
mutant at a time (the exact old text of one file replaced by new text)
and runs that mutant's tests with `-x` under `PYTHONHASHSEED=0`, one
process after another.  It exits 1 when a mutant's old text does not
occur exactly once in its file (restate the mutant after a refactor), or
when a mutant's tests pass (the mutant survives).

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "examples", "pyproject.toml")

EVALUATE = "src/cqa/evaluate.py"
INSTANCES = "src/cqa/instances.py"
ATTACKS = "src/cqa/attacks.py"
CLASSIFY = "src/cqa/classify.py"
FDS = "src/cqa/fds.py"
RANDOM_PAIRS = "tests/test_evaluate.py::test_plain_and_certain_equals_reference_on_random_pairs"
SCALE = "tests/test_evaluate.py::test_plain_and_certain_equals_reference_at_benchmark_scale"
GROUPS = "tests/test_evaluate.py::test_group_counts_equal_reference_at_every_width"
PARTKEY = "tests/test_cli.py::test_shipped_bundles_count_as_their_goldens[partkey]"
PARTS = "tests/test_instances.py::test_parts_put_each_row_in_one_part_in_key_order"
ROW_STORE = "tests/test_instances.py::test_row_store_equals_fact_store_on_random_bundles"
ORACLE_PAIRS = "tests/test_evaluate.py::test_oracle_equals_reference_on_random_pairs"
LONG_COUNT = "tests/test_cli.py::test_a_repair_count_too_long_for_str_exits_cleanly"
ANALYSIS = "tests/test_attacks.py::test_analysis_equals_reference_on_random_and_long_queries"
CYCLIC = "tests/test_classify.py::test_candidate_id_set_rejects_cyclic"
JOIN_PAIRS = "tests/test_evaluate.py::test_evaluate_equals_naive_join_on_random_pairs"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


MUTANTS = (
    # the fan-out steps of the certainty check
    Mutant(
        "fan-out: a block's certain reads are the union over its facts",
        EVALUATE,
        "agreed &= {mine(row + rest) for rest in sure.get(at, ())}",
        "agreed |= {mine(row + rest) for rest in sure.get(at, ())}",
        (RANDOM_PAIRS, SCALE),
    ),
    Mutant(
        "fan-out: a fact that fails the test is skipped, not emptying its block",
        EVALUATE,
        "                    if test and not test(row):\n"
        "                        agreed = set()\n"
        "                        continue\n",
        "                    if test and not test(row):\n"
        "                        continue\n",
        (RANDOM_PAIRS,),
    ),
    Mutant(
        "fan-out: a fact's plain reads taken from the certain reads under its key",
        EVALUATE,
        "plain.update([mine(row + rest) for rest in every.get(at, ())])",
        "plain.update([mine(row + rest) for rest in sure.get(at, ())])",
        (RANDOM_PAIRS, SCALE),
    ),
    Mutant(
        "fan-out: the next step's certain reads kept one per key",
        EVALUATE,
        "sure, every = _by_key(certain, keyof), _by_key(chain(certain, other), keyof)",
        "sure, every = {k: reads[:1] for k, reads in _by_key(certain, keyof).items()}, "
        "_by_key(chain(certain, other), keyof)",
        (SCALE, RANDOM_PAIRS),
    ),
    Mutant(
        "fan-out: a step that does not fan walked though a later step fans",
        EVALUATE,
        "fanned |= step.fans",
        "fanned = step.fans",
        (RANDOM_PAIRS,),
    ),
    # the walk after the last step that fans out
    Mutant(
        "walk: a single-fact row that finds a next certain read kept as another plain read",
        EVALUATE,
        "keep(emit(row + rest))",
        "other.append(emit(row + rest))",
        ("tests/test_evaluate.py::test_parsimonious_employee", RANDOM_PAIRS),
    ),
    Mutant(
        "walk: no plain read added on the certain branch of the conflicting-block loop",
        EVALUATE,
        "                        reads.add(mine(row + rest))\n",
        "                        pass\n",
        (RANDOM_PAIRS, SCALE),
    ),
    Mutant(
        "steps: `ahead` reads a whole next read in another order than `keyof`",
        EVALUATE,
        "ahead = _grouper([first[v] for v in shared]) if nxt else None",
        "ahead = _grouper(sorted(first[v] for v in shared) if shared == after"
        " else [first[v] for v in shared]) if nxt else None",
        ("tests/test_evaluate.py::test_certain_answers_on_consistent_db_is_plain_eval",
         RANDOM_PAIRS),
    ),
    Mutant(
        "walk: `ahead` bare while `keyof` stays a 1-tuple",
        EVALUATE,
        "keyof = _grouper([after.index(v) for v in shared])",
        "keyof = _values([after.index(v) for v in shared])",
        ("tests/test_evaluate.py::test_certain_answers_employee", RANDOM_PAIRS),
    ),
    Mutant(
        "walk: only the first plain read added on the miss branch of the single-fact loop",
        EVALUATE,
        "other += [emit(row + plain) for plain in below.get(at, ())]",
        "other += [emit(row + plain) for plain in below.get(at, ())[:1]]",
        (SCALE, RANDOM_PAIRS),
    ),
    Mutant(
        "walk: only the first plain read added on the miss branch of the conflicting-block loop",
        EVALUATE,
        "reads.update([mine(row + plain) for plain in below.get(at, ())])",
        "reads.update([mine(row + plain) for plain in below.get(at, ())[:1]])",
        (SCALE, RANDOM_PAIRS),
    ),
    Mutant(
        "walk: a whole conflicting block certain of each of its reads (agreement dropped)",
        EVALUATE,
        "if whole and len(reads) == 1:",
        "if whole:",
        ("tests/test_evaluate.py::test_certain_answers_employee", RANDOM_PAIRS),
    ),
    Mutant(
        "walk: a fact that fails the test leaves its conflicting block whole",
        EVALUATE,
        "                if test and not test(row):\n"
        "                    whole = False\n",
        "                if test and not test(row):\n"
        "                    pass\n",
        (RANDOM_PAIRS, SCALE),
    ),
    Mutant(
        "walk: a fact that finds no next certain read leaves its conflicting block whole",
        EVALUATE,
        "                        whole = False\n"
        "                        reads.update(",
        "                        reads.update(",
        (RANDOM_PAIRS, SCALE),
    ),
    Mutant(
        "walk: single-fact rows not tested against the atom",
        EVALUATE,
        "        if test:\n"
        "            singles = filter(test, singles)\n",
        "",
        (SCALE, RANDOM_PAIRS),
    ),
    Mutant(
        "steps: a repeated variable recorded as a first occurrence",
        EVALUATE,
        "repeats.append(i)",
        "first[t.symbol] = i",
        (JOIN_PAIRS,),
    ),
    Mutant(
        "join: a step's `own` reads binding slots, not first positions",
        EVALUATE,
        "own = itemgetter(*[first[v] for v in earlier]) if earlier else None",
        "own = itemgetter(*[slots[v] for v in earlier]) if earlier else None",
        (JOIN_PAIRS,),
    ),
    Mutant(
        "steps: a lone constant compared one position too far",
        EVALUATE,
        "return first, lambda row: row[i] == c",
        "return first, lambda row: row[i + 1] == c",
        ("tests/test_evaluate.py::test_certain_answers_employee",),
    ),
    Mutant(
        "steps: the general row test compares each repeated position with itself",
        EVALUATE,
        "same = _values([first[atom.args[i].symbol] for i in repeats])",
        "same = _values(repeats)",
        (JOIN_PAIRS, RANDOM_PAIRS),
    ),
    Mutant(
        "walk: the empty read not seeded as certain",
        EVALUATE,
        "    certain: Collection = [()]\n",
        "    certain: Collection = []\n",
        (RANDOM_PAIRS,),
    ),
    # the two collections the walk returns: no read twice, none in both
    Mutant(
        "walk: cross-block dedup skipped when the read lacks part of its atom's key",
        EVALUATE,
        "        if not step.holds:  # two blocks can give one read\n"
        "            certain = {*certain}\n"
        "            other = {*other} - certain\n",
        "",
        (PARTKEY, RANDOM_PAIRS),
    ),
    Mutant(
        "walk: a conflicting block's plain reads kept in a list, not a set",
        EVALUATE,
        "reads: set[tuple] = set()  # the block's plain reads",
        'reads = type("Reads", (list,), {"add": list.append, "update": list.extend})()',
        (RANDOM_PAIRS, SCALE),
    ),
    Mutant(
        "walk: a conflicting block's agreed read also left among its other plain reads",
        EVALUATE,
        "                certain += map(pick, reads) if grouped else reads\n"
        "            else:\n"
        "                other += map(pick, reads) if grouped else reads\n",
        "                certain += map(pick, reads) if grouped else reads\n"
        "            other += map(pick, reads) if grouped else reads\n",
        (SCALE, RANDOM_PAIRS),
    ),
    Mutant(
        "steps: every step's read taken to hold every variable of its atom",
        EVALUATE,
        "first.keys() <= {*read}",
        "True",
        (RANDOM_PAIRS, "tests/test_cli.py::test_shipped_bundles_count_as_their_goldens[blocks]"),
    ),
    Mutant(
        "walk: the last step's conflicting rows sent to the other plain reads untested",
        EVALUATE,
        "[*map(emit, filter(test, rows) if test else rows)]",
        "[*map(emit, rows)]",
        (RANDOM_PAIRS, GROUPS),
    ),
    Mutant(
        "walk: the key-holding test read off the last step for every step",
        EVALUATE,
        "if not step.holds:",
        "if not plan[-1].holds:",
        (PARTKEY, RANDOM_PAIRS),
    ),
    # what the answers are built from: the group values of the walk's first step
    Mutant(
        "count: the group getter reads one slot short",
        EVALUATE,
        "group = _grouper(positions[:width]) if k == 0",
        "group = _grouper(positions[:width - 1]) if k == 0",
        ("tests/test_evaluate.py::test_parsimonious_employee", GROUPS),
    ),
    Mutant(
        "count: group values emitted before dedup at a first step that does not hold",
        EVALUATE,
        "grouped = step.group is not None and step.holds",
        "grouped = step.group is not None",
        (PARTKEY, GROUPS),
    ),
    Mutant(
        "certainty: the plan reads the query's own head, dropping the id-set",
        EVALUATE,
        "slots = {v: i for i, v in enumerate(head)}",
        "slots = {v: i for i, v in enumerate(graph.query.free_vars)}",
        (RANDOM_PAIRS, GROUPS),
    ),
    Mutant(
        "parsimonious: the certainty head not widened by the id-set",
        EVALUATE,
        "_plain_and_certain(graph, db, q.free_vars + report.id_set, width)",
        "_plain_and_certain(graph, db, q.free_vars, width)",
        ("tests/test_evaluate.py::test_parsimonious_employee",),
    ),
    Mutant(
        "parsimonious: lower bounds counted from the plain answers",
        EVALUATE,
        "    lower = Counter(certain)\n",
        "    certain, other = [*certain], [*other]\n"
        "    lower = Counter(certain + other)\n",
        ("tests/test_evaluate.py::test_parsimonious_employee",),
    ),
    Mutant(
        "parsimonious: upper bounds counted from the other plain answers alone",
        EVALUATE,
        "upper = Counter(lower)",
        "upper = Counter()",
        ("tests/test_evaluate.py::test_parsimonious_employee",),
    ),
    Mutant(
        "parsimonious: the other plain answers left out of the upper bounds",
        EVALUATE,
        "    upper.update(other)\n",
        "",
        ("tests/test_evaluate.py::test_parsimonious_employee",
         "tests/test_evaluate.py::test_parsimonious_chain"),
    ),
    Mutant(
        "parsimonious: the m >= 1 half of the bounds guard dropped",
        EVALUATE,
        "if min(counts, default=1) < 1 or not all(map(le, counts, uppers)):",
        "if not all(map(le, counts, uppers)):",
        ("tests/test_evaluate.py::test_parsimonious_inconsistent_bounds_are_internal_errors",),
    ),
    Mutant(
        "parsimonious: the m <= n half of the bounds guard dropped",
        EVALUATE,
        "if min(counts, default=1) < 1 or not all(map(le, counts, uppers)):",
        "if min(counts, default=1) < 1:",
        ("tests/test_evaluate.py::test_parsimonious_inconsistent_bounds_are_internal_errors",),
    ),
    Mutant(
        "pessimistic check against the other plain answers",
        EVALUATE,
        "certain = _plain_and_certain(attack_graph(fixed), db, fixed.free_vars)[0]",
        "certain = _plain_and_certain(attack_graph(fixed), db, fixed.free_vars)[1]",
        ("tests/test_evaluate.py::test_optimistic_pessimistic_chain_matrix",),
    ),
    Mutant(
        "oracle: a group kept when some repair produces it",
        EVALUATE,
        "if hits == repairs",
        "if hits > 0",
        ("tests/test_evaluate.py::test_oracle_twin_lookup_instances",
         "tests/test_evaluate.py::test_oracle_equals_reference_on_random_pairs"),
    ),
    # the single-fact rows read as one-row blocks
    Mutant(
        "fan-out: single-fact rows left out of the blocks walked",
        EVALUATE,
        "for rows in chain(zip(singles), conflicts):",
        "for rows in conflicts:",
        (RANDOM_PAIRS, SCALE),
    ),
    Mutant(
        "oracle: single-fact rows left out of the picks",
        EVALUATE,
        "_picks([db._part(step.atom.name) for step in plan.steps], cap)",
        "_picks([((), db._part(step.atom.name)[1]) for step in plan.steps], cap)",
        ("tests/test_evaluate.py::test_oracle_twin_lookup_instances", ORACLE_PAIRS),
    ),
    # the partition of each relation's rows, and what reads it
    Mutant(
        "partition: a single-fact block put among the conflicting blocks",
        INSTANCES,
        "tuple(rows for rows in blocks if len(rows) > 1)",
        "tuple(rows for rows in blocks if len(rows) > 0)",
        (PARTS, ROW_STORE),
    ),
    Mutant(
        "partition: the last block of a relation dropped",
        INSTANCES,
        "blocks = [tuple(rows) for _, rows in itertools.groupby(self._rows[name], key)]",
        "blocks = [tuple(rows) for _, rows in itertools.groupby(self._rows[name], key)][:-1]",
        (PARTS, ROW_STORE),
    ),
    Mutant(
        "partition: every relation grouped on first use",
        INSTANCES,
        "        part = self._parted.get(name)\n",
        "        if not self._parted:\n"
        "            self._parted.update(dict.fromkeys(self.schema))\n"
        "            [*map(self._part, self.schema)]\n"
        "        part = self._parted.get(name)\n",
        ("tests/test_instances.py::test_count_never_groups_a_relation_the_query_does_not_read",),
    ),
    Mutant(
        "repairs: the single-fact rows and the picks not merged back in key order",
        INSTANCES,
        "dict(zip(db.schema, map(tuple, map(sorted, rows))))",
        "dict(zip(db.schema, map(tuple, rows)))",
        (ROW_STORE, "tests/test_cli.py::test_repairs_dump_golden"),
    ),
    Mutant(
        "repair count: read off the first relation alone",
        INSTANCES,
        "for _, conflicts in map(db._part, db.schema) for rows in conflicts",
        "for _, conflicts in map(db._part, [*db.schema][:1]) for rows in conflicts",
        (PARTS, "tests/test_instances.py::test_repair_count_and_enumeration_employee"),
    ),
    # the product over the conflicting blocks, shared by the oracle and the repairs
    Mutant(
        "picks: each part's picks cut by its count of single-fact rows",
        INSTANCES,
        "itertools.accumulate((len(conflicts) for _, conflicts in parts), initial=0)",
        "itertools.accumulate((len(singles) for singles, _ in parts), initial=0)",
        (ORACLE_PAIRS, ROW_STORE),
    ),
    Mutant(
        "picks: every part given the first part's single-fact rows",
        INSTANCES,
        "yield [singles + choice[cut] for (singles, _), cut in zip(parts, cuts)]",
        "yield [parts[0][0] + choice[cut] for cut in cuts]",
        (ORACLE_PAIRS, ROW_STORE),
    ),
    # counts too long for `str`
    Mutant(
        "refusal: the repair count formatted with plain `str`",
        INSTANCES,
        'super().__init__(f"{_count_text(count)} repairs exceed the cap of {cap}")',
        'super().__init__(f"{count} repairs exceed the cap of {cap}")',
        (LONG_COUNT,),
    ),
    Mutant(
        "repairs: the repair count printed with plain `str`",
        "src/cqa/cli.py",
        'print(f"{_count_text(count)} repairs")',
        'print(f"{count} repairs")',
        (LONG_COUNT,),
    ),
    Mutant(
        "output: a value stdout cannot encode left to a traceback",
        "src/cqa/cli.py",
        "    except UnicodeEncodeError as exc:  # a value the output's encoding lacks\n"
        "        bad = exc.object[exc.start : exc.end]\n"
        '        print(f"error: cannot write {bad!a} in the encoding {exc.encoding}", '
        "file=sys.stderr)\n"
        "        return 2\n",
        "",
        ("tests/test_cli.py::test_a_value_stdout_cannot_encode_is_exit_2",),
    ),
    Mutant(
        "output: `count` written a line at a time, keeping the lines before an error",
        "src/cqa/cli.py",
        "    sys.stdout.write(text)\n",
        "    sys.stdout.writelines(text.splitlines(keepends=True))\n",
        ("tests/test_cli.py::test_a_value_stdout_cannot_encode_is_exit_2",),
    ),
    Mutant(
        "bundles: a leading byte-order mark kept",
        INSTANCES,
        'data = path.read_bytes().removeprefix(b"\\xef\\xbb\\xbf")',
        "data = path.read_bytes()",
        ("tests/test_cli.py::test_files_starting_with_a_byte_order_mark_read_as_without",),
    ),
    Mutant(
        "bundle: a relation's CSV path that is not a file read as an empty relation",
        INSTANCES,
        "if not os.path.lexists(data):",
        "if not data.is_file():",
        ("tests/test_cli.py::test_a_directory_in_place_of_a_csv_is_exit_2",
         "tests/test_cli.py::test_a_dangling_symlink_in_place_of_a_csv_is_exit_2"),
    ),
    Mutant(
        "bundle: a dangling symlink in place of a CSV read as an empty relation",
        INSTANCES,
        "if not os.path.lexists(data):",
        "if not data.exists():",
        ("tests/test_cli.py::test_a_dangling_symlink_in_place_of_a_csv_is_exit_2",),
    ),
    Mutant(
        "bundle: a schema number too long for `int` raised as a ValueError",
        INSTANCES,
        "        except ValueError:  # more digits than `int` converts\n"
        '            raise BundleError(f"{schema_file}:{lineno}: arity or key has too many digits") from None\n',
        "",
        ("tests/test_cli.py::test_a_schema_number_too_long_for_int_is_exit_2",),
    ),
    Mutant(
        "bundle: a schema signature error without its line",
        INSTANCES,
        'raise BundleError(f"{schema_file}:{lineno}: {exc}") from None',
        'raise BundleError(f"{schema_file}: {exc}") from None',
        ("tests/test_cli.py::test_a_signature_out_of_range_is_exit_2_naming_its_line",),
    ),
    # the functional dependencies of a query
    Mutant(
        "FDs: the closure keeps the dependency `_skip` names",
        FDS,
        "if dep is not _skip and dep.lhs <= closed and not dep.rhs <= closed:",
        "if dep.lhs <= closed and not dep.rhs <= closed:",
        (ANALYSIS,),
    ),
    Mutant(
        "FDs: the head's {} -> free(q) dependency left out",
        FDS,
        "deps = [FunctionalDependency(frozenset(), frozenset(q.free_vars))]",
        "deps = []",
        ("tests/test_fds.py::test_fdset_contains_empty_to_free", ANALYSIS),
    ),
    Mutant(
        "FDs: a sequential proof takes the last ready atom, not the first",
        FDS,
        "atom = q.atoms[heapq.heappop(ready)]",
        "atom = q.atoms[ready.pop()]",
        ("tests/test_fds.py::test_sequential_proof_single_atom",),
    ),
    # one-pass classification
    Mutant(
        "id-set: the frozen variables keep the attacked ones",
        ATTACKS,
        "return g.fds.closure(()) - g.fds.free - set().union(*g._reached.values())",
        "return g.fds.closure(()) - g.fds.free",
        (ANALYSIS,),
    ),
    Mutant(
        "Cforest: an atom accepts a second parent",
        CLASSIFY,
        "        if parent.setdefault(t, s) != s:\n"
        "            return False\n",
        "        parent[t] = s\n",
        (ANALYSIS, "tests/test_classify.py::test_fuxman_forest_rejects_shared_target"),
    ),
    Mutant(
        "Cforest: the walk up the parents skipped",
        CLASSIFY,
        "    for start in parent:\n",
        "    for start in ():\n",
        (ANALYSIS, "tests/test_classify.py::test_classification_sorts_once_and_builds_no_fuxman_graph"),
    ),
    Mutant(
        "query: the stored `variables` leave out the head's",
        "src/cqa/queries.py",
        'self.__dict__["variables"] = variables',
        'self.__dict__["variables"] = variables - set(self.free_vars)',
        ("tests/test_fds.py::test_closure_of_universe_is_universe",
         "tests/test_acceptance.py::test_criterion_12_fd_engine_vs_two_row_tableau"),
    ),
    Mutant(
        "query graph: built directed, each co-occurrence walked one way only",
        "src/cqa/queries.py",
        "return Digraph(bound, edges, directed=False)",
        "return Digraph(bound, edges)",
        (ANALYSIS, "tests/test_cli.py::test_shipped_bundles_graph_as_their_goldens[query-joined]"),
    ),
    Mutant(
        "attack graph: keycl taken with the atom's own dependency",
        ATTACKS,
        "avoid = fds.closure(atom.key_vars, fds.deps[i + 1])",
        "avoid = fds.closure(atom.key_vars)",
        (ANALYSIS,),
    ),
    Mutant(
        "attack graph: keycl leaving out the dependency of the atom before",
        ATTACKS,
        "avoid = fds.closure(atom.key_vars, fds.deps[i + 1])",
        "avoid = fds.closure(atom.key_vars, fds.deps[i])",
        (ANALYSIS,),
    ),
    Mutant(
        "attack graph: a weak attack labelled strong, key(target) not closed over",
        ATTACKS,
        "determined = fds.closure(atom.key_vars)",
        "determined = atom.key_vars",
        (ANALYSIS,),
    ),
    Mutant(
        "attack graph: an empty order stored for a cyclic graph",
        ATTACKS,
        "self._order = super().topological_order()",
        "self._order = super().topological_order() or ()",
        (CYCLIC, ANALYSIS),
    ),
    Mutant(
        "attack graph: a stale order stored, the vertices in name order",
        ATTACKS,
        "self._order = super().topological_order()",
        "self._order = tuple(sorted(self.vertices))",
        (CYCLIC, ANALYSIS, RANDOM_PAIRS),
    ),
)


def _pytest(copy: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(copy / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def _tail(run: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((run.stdout + run.stderr).splitlines()[-lines:])


def main() -> int:
    stale = [m.name for m in MUTANTS
             if (ROOT / m.path).read_text(encoding="utf-8").count(m.old) != 1]
    for name in stale:
        print(f"STALE     {name}: its old text does not occur exactly once")
    if stale:
        return 1
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="cqa-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        every = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        clean = _pytest(copy, every)
        if clean.returncode != 0:
            print(f"the unmutated copy fails its tests:\n{_tail(clean)}")
            return 1
        survivors = 0
        for m in MUTANTS:
            target = copy / m.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            t0 = time.perf_counter()
            run = _pytest(copy, m.tests)
            target.write_text(text, encoding="utf-8")
            killed = run.returncode == 1  # tests failed; any other code kills nothing
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED':<9} {m.name} "
                  f"({time.perf_counter() - t0:.1f} s)")
            if not killed:
                print(f"  pytest exit {run.returncode}:\n{_tail(run)}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - started:.0f} s")
    by_file = Counter(m.path for m in MUTANTS)
    print("by file: " + ", ".join(f"{Path(path).name} {n}" for path, n in by_file.most_common()))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
