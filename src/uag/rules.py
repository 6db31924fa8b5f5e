"""Syntactic derivation for identities and their clause-shaped relatives.

Four clause kinds share one carrier: an identity is a single equation, a
pseudoidentity a disjunction of equations, a universal clause a disjunction
of equations and negated equations, and a quasi-identity an implication with
a conjunction of premises. Saturation is bounded (term depth, clause width,
iteration and candidate budgets) and only ever under-approximates semantic
consequence, so everything derived stays sound; the exhausted flag reports
when a budget, not a fixpoint, stopped the run.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .algebras import FiniteAlgebra, _eval_columns, agree_mask, enumerate_points, inferred_context
from .congruences import EMPTY_PAIRS, GroundCongruence, Pair, PairSet, ground_closure, normalize_pair
from .terms import (
    Substitution,
    Term,
    Value,
    Var,
    _set,
    app,
    apply_subst,
    check_same_sort,
    render,
    sort_of,
    subterm_universe,
    term_depth,
    term_key,
    var,
)

KINDS = ("identity", "pseudo", "universal", "quasi")
# past this many choices of one literal per premise, composition derives nothing
_CHOICE_CAP = 10**6


class Clause(Value):
    """A clause of one of the four kinds.

    Immutable, so its hash is computed once, at construction, from the
    fields equality compares, and kept in a slot outside the fields.
    """

    _fields = ("kind", "cons", "pos", "neg", "ante")
    __slots__ = (*_fields, "_hash")

    def __init__(
        self,
        kind: str,
        cons: Optional[Pair] = None,
        pos: PairSet = EMPTY_PAIRS,
        neg: PairSet = EMPTY_PAIRS,
        ante: PairSet = EMPTY_PAIRS,
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown clause kind {kind!r}")
        if kind == "identity":
            if cons is None or pos.pairs or neg.pairs or ante.pairs:
                raise ValueError("an identity is a single equation")
            cons = normalize_pair(cons)
        elif kind == "pseudo":
            if cons is not None or neg.pairs or ante.pairs or not pos.pairs:
                raise ValueError("a pseudoidentity is a nonempty disjunction of equations")
        elif kind == "universal":
            if cons is not None or ante.pairs or not (pos.pairs or neg.pairs):
                raise ValueError("a universal clause needs at least one literal")
        else:
            if pos.pairs or neg.pairs:
                raise ValueError("a quasi-identity has premises and one conclusion")
            if cons is not None:
                cons = normalize_pair(cons)
        _set(self, "kind", kind)
        _set(self, "cons", cons)
        _set(self, "pos", pos)
        _set(self, "neg", neg)
        _set(self, "ante", ante)
        _set(self, "_hash", hash((kind, cons, pos, neg, ante)))

    def __hash__(self) -> int:
        return self._hash

    def pairs(self) -> list[Pair]:
        """Every equation of the clause: pos, neg and ante, then cons."""
        return [*self.pos, *self.neg, *self.ante, *([] if self.cons is None else [self.cons])]

    def terms(self) -> list[Term]:
        return [t for pair in self.pairs() for t in pair]

    def key(self):
        cons = self.cons
        ck = ((),) if cons is None else (term_key(cons[0]), term_key(cons[1]))
        return (self.kind, ck, _side_key(self.pos), _side_key(self.neg), _side_key(self.ante))

    def __repr__(self) -> str:
        def fmt(ps, sep):
            return sep.join(f"{render(a)}={render(b)}" for a, b in ps)

        if self.kind == "identity":
            return f"<{render(self.cons[0])} = {render(self.cons[1])}>"
        if self.kind == "pseudo":
            return f"<{fmt(self.pos, ' | ')}>"
        if self.kind == "universal":
            negs = " | ".join(f"not({render(a)}={render(b)})" for a, b in self.neg)
            mid = " | " if len(self.pos) and len(self.neg) else ""
            return f"<{fmt(self.pos, ' | ')}{mid}{negs}>"
        head = "false" if self.cons is None else f"{render(self.cons[0])}={render(self.cons[1])}"
        return f"<{fmt(self.ante, ' & ')} -> {head}>"


def _side_key(side: PairSet) -> tuple:
    """Clause.key's part for one side: its pairs' term keys, () when empty."""
    if not side.pairs:
        return ()
    return tuple([(term_key(a), term_key(b)) for a, b in side.pairs])


def identity(pair: Pair) -> Clause:
    return Clause("identity", cons=pair)


def pseudo(pairs: Iterable[Pair]) -> Clause:
    return Clause("pseudo", pos=PairSet(pairs))


def universal(pos: Iterable[Pair], neg: Iterable[Pair]) -> Clause:
    return Clause("universal", pos=PairSet(pos), neg=PairSet(neg))


def quasi(ante: Iterable[Pair], cons: Optional[Pair]) -> Clause:
    return Clause("quasi", ante=PairSet(ante), cons=cons)


def holds_clause(g: FiniteAlgebra, c: Clause, ctx=None, cap: Optional[int] = None) -> bool:
    """Truth of the clause under every assignment into g.

    Every kind is a disjunction of literals: the equations of pos and cons,
    and the negated equations of neg and ante (a quasi-identity's premises).
    The clause holds iff some literal holds at every point.
    """
    if ctx is None:
        ctx = inferred_context(g.sig, c.terms())
    return _holds_at(g, c, ctx, enumerate_points(ctx, g, cap), {})


def _holds_at(g: FiniteAlgebra, c: Clause, ctx, points: list, memo: dict) -> bool:
    """holds_clause at the given points of ctx, with a column memo that
    calls over the same algebra, context and points may share.

    Each literal's points are a mask: where its sides agree (agree_mask),
    or the complement for a negated equation; the clause holds iff their
    union is every point."""
    literals = [(q, True) for q in c.pos] + [(q, False) for q in (*c.neg, *c.ante)]
    if c.cons is not None:
        literals.append((c.cons, True))
    cols = _eval_columns([t for q, _ in literals for t in q], points, g, ctx, memo)
    full = (1 << len(points)) - 1
    sat = 0
    for ((w, w2), positive), (s, lhs), (s2, rhs) in zip(literals, cols[::2], cols[1::2]):
        check_same_sort(w, w2, s, s2, g.sig)
        agree = agree_mask(lhs, rhs)
        sat |= agree if positive else full ^ agree
    return sat == full


def rho_membership(premises: Iterable[Pair], query: Pair, extra_terms: Iterable[Term] = ()) -> bool:
    """Is the query a ground consequence of the premise equations?

    Variables are treated as opaque constants, which under-approximates full
    equational consequence; every rule that consults this stays sound.
    """
    gc = ground_closure(PairSet(premises), extra_terms)
    return gc.contains(query)


def circ_pseudo_member(premises: Sequence[Clause], candidate: Clause) -> bool:
    """The composition test: every choice of one disjunct per premise must
    ground-derive some disjunct of the candidate. Pseudoidentities are the
    negation-free universal clauses, so this is circ_universal_member."""
    return circ_universal_member(premises, candidate)


def circ_universal_member(premises: Sequence[Clause], candidate: Clause) -> bool:
    """Composition for mixed clauses: each premise contributes either one of
    its equations (kept as a premise) or one of its negated equations (kept
    as a goal); the candidate's negated side always joins the premises.

    The one-candidate, one-combination case of the engine derive_closure
    runs, with closures of its own; False when the premises have more than
    _CHOICE_CAP choices.
    """
    groups, todo = _grouped([candidate], ())
    return _derived_mask(premises, groups, todo, {}) == todo


class _Group:
    """Candidates with one negated side, which joins every choice's premises.

    Bits index the candidates, each positive literal is a pair of indices
    into the group's distinct terms, and held caches, per closure, the bits
    whose positive side holds there, read off the terms' find roots.
    """

    __slots__ = ("neg", "bits", "terms", "literals", "held")

    def __init__(self, neg: PairSet):
        self.neg = frozenset(neg)
        self.bits = 0
        self.terms: dict[Term, int] = {}
        self.literals: list[tuple[int, int, int]] = []
        self.held: dict[GroundCongruence, int] = {}

    def add(self, bit: int, pos: PairSet) -> None:
        self.bits |= bit
        for a, b in pos:
            ia = self.terms.setdefault(a, len(self.terms))
            ib = self.terms.setdefault(b, len(self.terms))
            self.literals.append((bit, ia, ib))

    def holding(self, gc: GroundCongruence) -> int:
        bits = self.held.get(gc)
        if bits is None:
            roots = gc.roots(self.terms)
            bits = 0
            for bit, ia, ib in self.literals:
                if roots[ia] is roots[ib]:
                    bits |= bit
            self.held[gc] = bits
        return bits


def _grouped(candidates: Sequence[Clause], skip: Iterable[Clause]) -> tuple[list[_Group], int]:
    """The candidates outside skip, grouped by negated side, with bit i
    standing for candidates[i]; and the mask of their bits."""
    skip = set(skip)
    groups: dict[PairSet, _Group] = {}
    todo = 0
    for i, cand in enumerate(candidates):
        if cand not in skip:
            if cand.neg not in groups:
                groups[cand.neg] = _Group(cand.neg)
            groups[cand.neg].add(1 << i, cand.pos)
            todo |= 1 << i
    return list(groups.values()), todo


_NO_PREMISES: frozenset = frozenset()


def _derived_mask(
    premises: Sequence[Clause],
    groups: Sequence[_Group],
    mask: int,
    closures: dict[frozenset, GroundCongruence],
) -> int:
    """The bits of mask whose candidates the premises derive by composition.

    Every choice of one literal per premise, with the candidate's negated
    side joining the chosen equations, must ground-derive a positive literal
    of the candidate or a chosen negated equation (a goal). closures holds
    the ground closure of each premise set closed so far, and gains those
    this call closes. Under the empty premise set it keeps a root closure,
    built once with every group's terms registered; every other premise set
    is closed in a copy of the root. Sharing is sound because ground
    consequence among registered terms does not depend on which other terms
    are registered. Choices are walked lazily, goals are read only for
    candidates still failing, and the walk stops once no bit is left; 0 when
    there are more than _CHOICE_CAP choices.
    """
    lists = []
    count = 1
    for u in premises:
        lists.append([(q, True) for q in u.pos] + [(q, False) for q in u.neg])
        count *= len(lists[-1])
        if count > _CHOICE_CAP:
            return 0
    root = closures.get(_NO_PREMISES)
    if root is None:
        root = closures[_NO_PREMISES] = ground_closure((), [t for g in groups for t in g.terms])
    for chosen in itertools.product(*lists):
        prem = frozenset([q for q, kept in chosen if kept])
        goals = [q for q, kept in chosen if not kept]
        for g in groups:
            live = mask & g.bits
            if not live:
                continue
            key = prem | g.neg
            gc = closures.get(key)
            if gc is None:
                gc = closures[key] = root.copy()
                for w, w2 in key:
                    gc.merge(w, w2)
            failed = live & ~g.holding(gc)
            if failed and not any(gc.contains(q) for q in goals):
                mask &= ~failed
        if not mask:
            return 0
    return mask


class SaturationBounds(Value):
    __slots__ = _fields = ("depth", "width", "iterations", "budget")
    _defaults = {"depth": 2, "width": 2, "iterations": 6, "budget": 20000}


class DeriveResult(Value):
    __slots__ = _fields = ("clauses", "exhausted", "rounds")

    def __contains__(self, c: Clause) -> bool:
        return c in set(self.clauses)


class _Budget:
    __slots__ = ("left", "exhausted")

    def __init__(self, n: int):
        self.left = n
        self.exhausted = False

    def spend(self) -> bool:
        if self.left <= 0:
            self.exhausted = True
            return False
        self.left -= 1
        return True


def _pair_universe(terms: Sequence[Term], sig, ctx, limit: int) -> list[Pair]:
    """Same-sort pairs over a term list, deduplicated, deterministic order.
    The terms are subterms of checked seeds, so each has its head's sort."""
    by_sort: dict[int, list[Term]] = {}
    for t in sorted(set(terms), key=term_key):
        s = ctx.sort_of(t.name) if isinstance(t, Var) else sig.op(t.op).result
        by_sort.setdefault(s, []).append(t)
    out: list[Pair] = []
    seen: set[tuple[int, int]] = set()
    for ts in by_sort.values():
        for a, b in itertools.combinations(ts, 2):
            a, b = normalize_pair((a, b))
            if (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                out.append((a, b))
                if len(out) >= limit:
                    return out
    return out


def _subterms_of(clauses: Iterable[Clause]) -> list[Term]:
    return subterm_universe(t for c in clauses for t in c.terms())


def term_universe(sig, ctx, depth: int, limit: int = 4000) -> list[Term]:
    """All well-sorted terms of bounded depth, in layered deterministic order."""
    out: list[Term] = [var(name) for name, _ in ctx.vars]
    sorts = [s for _, s in ctx.vars]
    seen: set[int] = set(id(t) for t in out)
    for _ in range(depth):
        by_sort: dict[int, list[Term]] = {}
        for t, s in zip(out, sorts):
            by_sort.setdefault(s, []).append(t)
        new: list[Term] = []
        for op in sig.ops:
            for combo in itertools.product(*[by_sort.get(s, []) for s in op.args]):
                t = app(op.name, *combo)
                if id(t) not in seen:
                    seen.add(id(t))
                    new.append(t)
                    sorts.append(op.result)
                    if len(out) + len(new) >= limit:
                        out.extend(new)
                        return out
        out.extend(new)
        if not new:
            break
    return out


def _max_depth(c: Clause) -> int:
    return max((term_depth(t) for t in c.terms()), default=0)


def _check_seed_equation(w: Term, w2: Term, sig, ctx) -> None:
    """Raise ValueError, naming the equation, unless both sides are
    well-sorted terms of one sort."""
    try:
        s, s2 = sort_of(w, sig, ctx), sort_of(w2, sig, ctx)
    except ValueError as e:
        raise ValueError(f"seed equation {render(w)} = {render(w2)}: {e}") from None
    check_same_sort(w, w2, s, s2, sig, "seed equation")


def _seed_context(clauses: Sequence[Clause], sig):
    """The context inferred from all seeds.

    When inference fails, the first seed equation that fails alone with the
    same error is named; a conflict spanning two equations keeps the plain
    message.
    """
    try:
        return inferred_context(sig, [t for c in clauses for t in c.terms()])
    except ValueError as e:
        for c in clauses:
            for w, w2 in c.pairs():
                try:
                    inferred_context(sig, [w, w2])
                except ValueError as alone:
                    if str(alone) == str(e):
                        raise ValueError(f"seed equation {render(w)} = {render(w2)}: {e}") from None
        raise


def derive_closure(
    kind: str,
    seeds: Iterable,
    sig,
    ctx=None,
    bounds: SaturationBounds = SaturationBounds(),
    quackenbush: bool = False,
) -> DeriveResult:
    """Bounded saturation of the derivation rules for one clause kind.

    Seeds may be raw pairs (lifted to the kind's simplest clause) or Clauses.
    Derived clauses beyond the depth bound are dropped rather than kept, so a
    completed run is a fixpoint of the depth-bounded rule system. Falsum
    conclusions are only admitted with quackenbush=True.

    The composition steps (pseudo and universal) decide each premise
    combination once per step for all candidates, as one bitmask, and close
    each distinct premise set once per run. The answers, and the budget
    spent, are those of one test per (candidate, combination) in a fresh
    closure: each test still spends one unit.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown clause kind {kind!r}")
    clauses: list[Clause] = []
    for s in seeds:
        if isinstance(s, Clause):
            c = s
            if c.kind != kind:
                raise ValueError(f"seed kind {c.kind!r} does not match {kind!r}")
        elif kind == "identity":
            c = identity(s)
        elif kind == "pseudo":
            c = pseudo([s])
        elif kind == "universal":
            c = universal([s], [])
        else:
            c = quasi([], s)
        if c.kind == "quasi" and c.cons is None and not quackenbush:
            raise ValueError("falsum conclusions need quackenbush=True")
        clauses.append(c)
    if ctx is None:
        ctx = _seed_context(clauses, sig)
    for c in clauses:
        for w, w2 in c.pairs():
            _check_seed_equation(w, w2, sig, ctx)
    budget = _Budget(bounds.budget)
    current: dict[Clause, None] = dict.fromkeys(clauses)
    rounds = 0
    if kind == "identity":
        step = _step_identity
    elif kind == "pseudo":
        step = _step_pseudo
    elif kind == "universal":
        step = _step_universal
    else:
        step = _step_quasi
    base = _subterms_of(current)
    closures: dict[frozenset, GroundCongruence] = {}
    for _ in range(bounds.iterations):
        rounds += 1
        fresh = step(list(current), sig, ctx, bounds, budget, base, quackenbush, closures)
        added = False
        for c in fresh:
            if c not in current:
                current[c] = None
                added = True
        if not added or budget.exhausted:
            break
    ordered = sorted(current, key=lambda c: c.key())
    return DeriveResult(tuple(ordered), budget.exhausted, rounds)


def _equality_steps(eqs: Sequence[Pair], sig, ctx, budget: _Budget, keep) -> bool:
    """Transitivity, then one congruence step through each unary or binary op.

    Each consequence spends one unit of budget before keep sees it; False
    means the budget ran out.
    """
    partners: dict[Term, list[Term]] = {}
    for a, b in eqs:
        partners.setdefault(a, []).append(b)
        partners.setdefault(b, []).append(a)
    for a in sorted(partners, key=term_key):
        for b in partners[a]:
            for c in partners.get(b, ()):
                if not budget.spend():
                    return False
                keep(a, c)
    eq_sorts = [sort_of(w, sig, ctx) for w, _ in eqs]
    for op in sig.ops:
        if op.arity == 0 or op.arity > 2:
            continue
        pools = [[q for q, qs in zip(eqs, eq_sorts) if qs == s] for s in op.args]
        for combo in itertools.product(*pools):
            if not budget.spend():
                return False
            keep(app(op.name, *[w for w, _ in combo]), app(op.name, *[w2 for _, w2 in combo]))
    return True


def _step_identity(cur, sig, ctx, bounds, budget, base, _qk, _closures) -> list[Clause]:
    pairs = [c.cons for c in cur]
    out: list[Clause] = []
    # a pair of cur, or one met again, would make a clause equal to one
    # derive_closure holds, which it drops: only a new pair's first
    # occurrence is built. Interned terms are equal iff identical, so a pair
    # up to the order identity() normalizes away is its ids, smaller first.
    seen = {(id(w), id(w2)) if id(w) < id(w2) else (id(w2), id(w)) for w, w2 in pairs}

    def keep(w, w2):
        # reflexive consequences are left implicit; storing w=w clauses would
        # bloat the result without adding information
        if w is w2:
            return
        if max(term_depth(w), term_depth(w2)) > bounds.depth:
            return
        key = (id(w), id(w2)) if id(w) < id(w2) else (id(w2), id(w))
        if key not in seen:
            seen.add(key)
            out.append(identity((w, w2)))

    if not _equality_steps(pairs, sig, ctx, budget, keep):
        return out
    universe = term_universe(sig, ctx, bounds.depth)
    sorts = [sort_of(t, sig, ctx) for t in universe]
    for name, s in ctx.vars:
        for t, ts in zip(universe, sorts):
            if ts != s or (getattr(t, "name", None) == name):
                continue
            sub = Substitution({name: t})
            for w, w2 in pairs:
                if not budget.spend():
                    return out
                keep(apply_subst(sub, w), apply_subst(sub, w2))
    return out


def _weakenings(c: Clause, extras: Sequence[Pair], width: int, budget) -> list[Clause]:
    out = []
    for take in range(1, width + 1):
        for combo in itertools.combinations(extras, take):
            if not budget.spend():
                return out
            if c.kind == "pseudo":
                out.append(pseudo(list(c.pos) + list(combo)))
            else:
                out.append(universal(list(c.pos) + list(combo), c.neg))
    return out


def _composed(
    cur,
    candidates: Sequence[Clause],
    sizes: Sequence[int],
    closures: dict[frozenset, GroundCongruence],
    budget: _Budget,
) -> list[Clause]:
    """The candidates outside cur that the composition test derives from some
    premise combination of cur.

    Each candidate tries the combinations smallest first, each test spending
    one unit of budget, until one derives it or the budget runs out. A
    combination is decided once, when first reached, for every candidate
    still to try it: the bitmask of those it derives.
    """
    out: list[Clause] = []
    groups, todo = _grouped(candidates, cur)
    derived: dict[tuple[int, ...], int] = {}
    for i, cand in enumerate(candidates):
        bit = 1 << i
        if not todo & bit:
            continue
        for combo in itertools.chain.from_iterable(itertools.combinations(range(len(cur)), k) for k in sizes):
            if not budget.spend():
                return out
            mask = derived.get(combo)
            if mask is None:
                mask = derived[combo] = _derived_mask([cur[j] for j in combo], groups, todo, closures)
            if mask & bit:
                out.append(cand)
                break
        todo &= ~bit
    return out


def _step_pseudo(cur, sig, ctx, bounds, budget, base, _qk, closures) -> list[Clause]:
    out: list[Clause] = []
    extras = _pair_universe(base, sig, ctx, limit=8)
    for c in cur:
        if _max_depth(c) <= bounds.depth:
            out.extend(_weakenings(c, extras, min(bounds.width, 1), budget))
    candidates = [pseudo([q]) for q in _pair_universe(base, sig, ctx, limit=24)]
    return out + _composed(cur, candidates, (1, 2, 3), closures, budget)


def _step_universal(cur, sig, ctx, bounds, budget, base, _qk, closures) -> list[Clause]:
    out: list[Clause] = []
    extras = _pair_universe(base, sig, ctx, limit=6)
    for c in cur:
        if _max_depth(c) <= bounds.depth:
            out.extend(_weakenings(c, extras, min(bounds.width, 1), budget))
    qs = _pair_universe(base, sig, ctx, limit=12)
    candidates = [universal([q], []) for q in qs]
    candidates += [universal([q], [r]) for q in qs[:6] for r in qs[:6] if q != r]
    return out + _composed(cur, candidates, (1, 2), closures, budget)


def _step_quasi(cur, sig, ctx, bounds, budget, base, quackenbush, _closures) -> list[Clause]:
    out: list[Clause] = []
    ante_cap = max((len(c.ante) for c in cur), default=0) + bounds.width

    def keep(ante: PairSet, cons: Optional[Pair]):
        if len(ante) > ante_cap:
            return
        if cons is not None and max(term_depth(cons[0]), term_depth(cons[1])) > bounds.depth:
            return
        if cons is None and not quackenbush:
            return
        if cons is not None and cons[0] is cons[1]:
            return
        out.append(quasi(ante, cons))

    antes = sorted({c.ante for c in cur}, key=lambda ps: tuple(term_key(a) for a, _ in ps))
    for ante in antes:
        for q in ante:
            if not budget.spend():
                return out
            keep(ante, q)
    by_ante: dict[PairSet, list[Clause]] = {}
    for c in cur:
        by_ante.setdefault(c.ante, []).append(c)
    for ante, group in by_ante.items():
        eqs = [c.cons for c in group if c.cons is not None]
        if not _equality_steps(eqs, sig, ctx, budget, lambda w, w2: keep(ante, (w, w2))):
            return out
    for c1 in cur:
        if c1.cons is None:
            continue
        for c2 in cur:
            if c1.cons in c2.ante:
                if not budget.spend():
                    return out
                rest = PairSet(q for q in c2.ante if q != normalize_pair(c1.cons))
                keep(c1.ante.union(rest), c2.cons)
    return out


def soundness_check(
    derived: Iterable[Clause],
    seeds: Iterable[Clause],
    pool: Iterable[FiniteAlgebra],
    ctx=None,
    cap: Optional[int] = None,
) -> list[tuple[str, Clause]]:
    """Violations of derived clauses in pool algebras that satisfy the seeds.

    Each derived clause is decided in turn, as holds_clause decides it, but
    the clauses of one algebra over one context share its point list and one
    column memo, so a subterm common to several clauses is evaluated once.
    """
    derived, seeds = list(derived), list(seeds)
    violations = []
    for g in pool:
        if all(holds_clause(g, c, ctx, cap) for c in seeds):
            shared: dict[tuple, tuple[list, dict]] = {}  # context vars -> points, column memo
            for c in derived:
                cctx = inferred_context(g.sig, c.terms()) if ctx is None else ctx
                hit = shared.get(cctx.vars)
                if hit is None:
                    hit = shared[cctx.vars] = enumerate_points(cctx, g, cap), {}
                if not _holds_at(g, c, cctx, *hit):
                    violations.append((g.name, c))
    return violations
