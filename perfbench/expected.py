"""Expected answers computed from the generated rows alone.

These closed forms do not call the package.  Range-consistent counts are
returned as `((group,), lower, upper)` tuples, which compare equal to the
package's `RangeAnswer` named tuples.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from gen import Bundle


def employee_counts(bundle: Bundle) -> frozenset[tuple[tuple[str], int, int]]:
    """[m, n] per group z for q(z) :- E(x | 'F', y), D(y | z), counting x.

    Blocks are independent choices, so each bound is attained by one repair:
    n(z) counts employees with some 'F' fact into a department that may map
    to z; m(z) counts employees all of whose facts are 'F' into departments
    that can only map to z.  Exactly the groups with m(z) >= 1 are in every
    repair.
    """
    dept = {y: {z for (z,) in rest} for (y,), rest in bundle.blocks("D").items()}
    upper: Counter[str] = Counter()
    lower: Counter[str] = Counter()
    for opts in bundle.blocks("E").values():
        reach: set[str] = set()
        forced: set[frozenset[str]] = set()
        for gender, y in opts:
            zs = dept.get(y, set()) if gender == "F" else set()
            reach |= zs
            forced.add(frozenset(zs))
        for z in reach:
            upper[z] += 1
        if len(forced) == 1:
            (only,) = forced
            if len(only) == 1:
                lower[next(iter(only))] += 1
    return frozenset(((z,), m, upper[z]) for z, m in lower.items())


def lookup_counts(bundle: Bundle) -> frozenset[tuple[tuple[str], int, int]]:
    """[m, n] per group z for q(z) :- E(x | z), counting x: n(z) keys that
    may map to z, m(z) keys that can only map to z."""
    upper: Counter[str] = Counter()
    lower: Counter[str] = Counter()
    for opts in bundle.blocks("E").values():
        for (z,) in opts:
            upper[z] += 1
        if len(opts) == 1:
            ((z,),) = opts
            lower[z] += 1
    return frozenset(((z,), m, upper[z]) for z, m in lower.items())


def has_perfect_matching(triples: list[tuple[str, str, str]], n: int) -> bool:
    """Brute force: n pairwise disjoint triples (n values per coordinate)."""
    for pick in combinations(triples, n):
        if all(len({t[i] for t in pick}) == n for i in range(3)):
            return True
    return False
