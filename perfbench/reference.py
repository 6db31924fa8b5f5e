"""Independent routes for checking the benchmark's verdicts.

Nothing here calls into uag's algorithms. Group term functions are built by a
Cayley-graph walk over the variable rows, closed point sets come from the
Moore family of zero sets of those functions, and everything else is the
definitional brute force of the repository's test oracles (tests/oracles.py),
which work on uag's term objects through their public fields only.
"""

from __future__ import annotations

import itertools
import os
import sys

_TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)

import oracles  # noqa: E402  (tests/oracles.py)

o_eval = oracles.o_eval
o_points = oracles.o_points
o_env = oracles.o_env
o_variety = oracles.o_variety
o_closure_member = oracles.o_closure_member
o_eval_formula = oracles.o_eval_formula
o_ground_closure_classes = oracles.o_ground_closure_classes


def term_text(t) -> str:
    """Prefix s-expression text of a term, the workspace file syntax."""
    args = getattr(t, "args", None)
    if args is None:
        return t.name
    if not args:
        return t.op
    return "(" + t.op + " " + " ".join(term_text(a) for a in args) + ")"


def term_vars(terms) -> list[str]:
    out: list[str] = []
    stack = list(terms)
    while stack:
        t = stack.pop()
        args = getattr(t, "args", None)
        if args is None:
            if t.name not in out:
                out.append(t.name)
        else:
            stack.extend(args)
    return sorted(out)


class GroupSpace:
    """The point space G^n of a group with its closed sets, by zero sets.

    A set of points is closed iff it is an intersection of solution sets of
    equations. In a group w = w' has the solution set of w * inv(w') = e, so
    the zero sets of the term functions (reached by a Cayley walk from the
    variable rows) generate every closed set under intersection.
    """

    def __init__(self, g, nvars: int):
        self.points = list(itertools.product(range(g.sizes[0]), repeat=nvars))
        self.index = {p: i for i, p in enumerate(self.points)}
        self.full = (1 << len(self.points)) - 1
        e = g.tables["e"][()]
        functions = cayley_walk(g, [tuple(p[i] for p in self.points) for i in range(nvars)])
        self.basics = sorted({sum(1 << i for i, v in enumerate(f) if v == e) for f in functions})

    def mask(self, points) -> int:
        return sum(1 << self.index[tuple(p)] for p in points)

    def unmask(self, m: int) -> list[tuple[int, ...]]:
        return [p for i, p in enumerate(self.points) if m >> i & 1]

    def closure(self, m: int) -> int:
        out = self.full
        for z in self.basics:
            if z & m == m:
                out &= z
        return out

    def closed_sets(self) -> set[int]:
        fam = {self.full}
        for z in self.basics:
            fam |= {s & z for s in fam}
        return fam


def cayley_walk(g, rows) -> set[tuple[int, ...]]:
    """The subgroup of G^n generated by the given rows, by breadth-first walk."""
    mul, inv = g.tables["mul"], g.tables["inv"]
    gens = list(rows) + [tuple(inv[(x,)] for x in r) for r in rows]
    start = tuple(g.tables["e"][()] for _ in rows[0])
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for f in frontier:
            for r in gens:
                h = tuple(mul[(a, b)] for a, b in zip(f, r))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def cayley_size(g, rows) -> int:
    return len(cayley_walk(g, rows))


def subgroup(g, elements) -> list[int]:
    mul = g.tables["mul"]
    out = {g.tables["e"][()]} | set(elements)
    changed = True
    while changed:
        new = {mul[(a, b)] for a in out for b in out} - out
        changed = bool(new)
        out |= new
    return sorted(out)


def identities_hold_on(g, members, identities) -> bool:
    """Every identity holds under every assignment into the given subset."""
    names = term_vars([t for p in identities for t in p])
    for vals in itertools.product(members, repeat=len(names)):
        env = dict(zip(names, vals))
        for a, b in identities:
            if o_eval(a, env, g.tables) != o_eval(b, env, g.tables):
                return False
    return True


def clause_holds(g, clause, names) -> bool:
    """Definitional truth of a clause under every assignment of the names."""
    for vals in itertools.product(range(g.sizes[0]), repeat=len(names)):
        env = dict(zip(names, vals))

        def eq(pair):
            return o_eval(pair[0], env, g.tables) == o_eval(pair[1], env, g.tables)

        if clause.kind == "identity":
            ok = eq(clause.cons)
        elif clause.kind == "pseudo":
            ok = any(eq(q) for q in clause.pos)
        elif clause.kind == "universal":
            ok = any(eq(q) for q in clause.pos) or any(not eq(q) for q in clause.neg)
        else:
            ok = not all(eq(q) for q in clause.ante) or (
                clause.cons is not None and eq(clause.cons)
            )
        if not ok:
            return False
    return True


def clause_names(clauses) -> list[str]:
    return term_vars([t for c in clauses for t in c.terms()])
