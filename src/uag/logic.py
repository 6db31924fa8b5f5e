"""First-order formulas over finite models, evaluated as point sets.

A formula's value is the set of points (assignments into the model's
algebra) at which it holds, so the Boolean connectives become set
operations and the quantifiers become cylindrifications along variables.
Substitutions act on formulas syntactically and on value sets through
composition of points; the two actions agree, which is what the
substitution lemmas below exercise.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cache
from operator import getitem
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .config import check_cap
from .algebras import (
    FiniteAlgebra,
    GeneratedSubalgebra,
    Point,
    _eval_columns,
    agree_mask,
    dense_blocks,
    extend_with_constants,
    index_to_tuple,
    product,
    quotient,
    subalgebra_generated,
)
from .geometry import point_subalgebras, pull_back, random_term
from .spaces import GeoContext, PointSet, flag_mask
from .terms import (
    Signature,
    Substitution,
    Value,
    VarContext,
    adjoin_constants,
    app,
    apply_subst,
    check_same_sort,
    constant_name,
    term_vars,
    var,
)


class Formula(Value):
    __slots__ = ()


class Eq(Formula):
    __slots__ = _fields = ("lhs", "rhs")


class Rel(Formula):
    __slots__ = _fields = ("name", "args")


class And(Formula):
    __slots__ = _fields = ("items",)


class Or(Formula):
    __slots__ = _fields = ("items",)


class Not(Formula):
    __slots__ = _fields = ("body",)


class Exists(Formula):
    __slots__ = _fields = ("ys", "body")


def exists_f(ys: Iterable[str], body: Formula) -> Exists:
    return Exists(tuple(sorted(set(ys))), body)


def forall_f(ys: Iterable[str], body: Formula) -> Formula:
    return Not(exists_f(ys, Not(body)))


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Eq):
        return frozenset(term_vars(f.lhs)) | frozenset(term_vars(f.rhs))
    if isinstance(f, Rel):
        out: set[str] = set()
        for t in f.args:
            out.update(term_vars(t))
        return frozenset(out)
    if isinstance(f, (And, Or)):
        out = set()
        for g in f.items:
            out.update(free_vars(g))
        return frozenset(out)
    if isinstance(f, Not):
        return free_vars(f.body)
    assert isinstance(f, Exists)
    return free_vars(f.body) - set(f.ys)


def is_open(f: Formula) -> bool:
    if isinstance(f, (Eq, Rel)):
        return True
    if isinstance(f, (And, Or)):
        return all(is_open(g) for g in f.items)
    if isinstance(f, Not):
        return is_open(f.body)
    return False


def is_positive(f: Formula) -> bool:
    if isinstance(f, (Eq, Rel)):
        return True
    if isinstance(f, (And, Or)):
        return all(is_positive(g) for g in f.items)
    if isinstance(f, Exists):
        return is_positive(f.body)
    return False


class RelSignature:
    """Relation names with argument sorts, resolved against a signature."""

    __slots__ = ("sig", "rels")

    def __init__(self, sig: Signature, rels: Iterable[tuple[str, Sequence[str]]] = ()):
        self.sig = sig
        out: dict[str, tuple[int, ...]] = {}
        for name, arg_sorts in rels:
            if name in out:
                raise ValueError(f"duplicate relation {name!r}")
            out[name] = tuple(sig.sort_index(s) for s in arg_sorts)
        self.rels = out

    def arity(self, name: str) -> tuple[int, ...]:
        if name not in self.rels:
            raise ValueError(f"unknown relation {name!r}")
        return self.rels[name]

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}/{len(a)}" for n, a in sorted(self.rels.items()))
        return f"RelSignature({inner})"


class Model:
    """A finite algebra together with interpreted relations.

    The constructor checks every row, for models from outside the package.
    Relations the package builds are declared, of the right arity and in
    range by construction and go to _built_model unchecked."""

    __slots__ = ("algebra", "rel_sig", "relations", "name")

    def __init__(
        self,
        algebra: FiniteAlgebra,
        rel_sig: RelSignature,
        relations: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
        name: Optional[str] = None,
    ):
        relations = relations or {}
        state: dict[str, frozenset[tuple[int, ...]]] = {}
        for rel in rel_sig.rels:
            rows = frozenset(tuple(r) for r in relations.get(rel, ()))
            sorts = rel_sig.rels[rel]
            for row in rows:
                if len(row) != len(sorts):
                    raise ValueError(f"relation {rel!r} row has wrong arity: {row}")
                for s, e in zip(sorts, row):
                    if not 0 <= e < algebra.sizes[s]:
                        raise ValueError(f"relation {rel!r} row out of range: {row}")
            state[rel] = rows
        for rel in relations:
            if rel not in rel_sig.rels:
                raise ValueError(f"relation {rel!r} not declared")
        self.algebra = algebra
        self.rel_sig = rel_sig
        self.relations = state
        self.name = name or algebra.name

    def __repr__(self) -> str:
        return f"Model({self.name})"


def _built_model(
    algebra: FiniteAlgebra, rel_sig: RelSignature, relations: dict[str, frozenset[tuple[int, ...]]], name: str
) -> Model:
    """The model of relations laid out as Model keeps them, unchecked: for
    callers whose relations hold every declared relation, and only rows of
    its arity within the algebra's carriers, by construction."""
    m = Model.__new__(Model)
    m.algebra, m.rel_sig, m.relations, m.name = algebra, rel_sig, relations, name
    return m


def eval_formula(m: Model, f: Formula, gctx: GeoContext) -> PointSet:
    """The value of the formula: every point at which it holds.

    This is fo_variety of the formula alone. Its atoms are evaluated left
    to right over one column memo, so the first ill-formed atom raises;
    sub-values are masks, and one PointSet is built at the end.
    """
    return fo_variety(m, [f], gctx)


def _value_mask(m: Model, f: Formula, gctx: GeoContext, memo: dict) -> int:
    """The formula's value as a mask of gctx's points, its atoms' columns
    evaluated with the given memo: an equation's points are where its
    sides agree, the connectives are &, | and the complement within the
    full mask, and a quantifier is GeoContext.cylinder_mask."""
    ctx, g = gctx.ctx, gctx.g
    if isinstance(f, Eq):
        (s, lhs), (s2, rhs) = _eval_columns([f.lhs, f.rhs], gctx.points, g, ctx, memo)
        check_same_sort(f.lhs, f.rhs, s, s2, g.sig)
        return agree_mask(lhs, rhs)
    if isinstance(f, Rel):
        sorts = m.rel_sig.arity(f.name)
        rows = m.relations[f.name]
        cols = _eval_columns(f.args, gctx.points, g, ctx, memo)
        if tuple(s for s, _ in cols) != sorts:
            got = " ".join(g.sig.sorts[s] for s, _ in cols)
            want = " ".join(g.sig.sorts[s] for s in sorts)
            raise ValueError(f"relation {f.name!r} takes ({want}), applied to terms of sorts ({got})")
        args = zip(*(col for _, col in cols)) if cols else [()] * len(gctx.points)
        return flag_mask(bytes(map(rows.__contains__, args)))
    if isinstance(f, And):
        mask = gctx.full_mask
        for item in f.items:
            mask &= _value_mask(m, item, gctx, memo)
        return mask
    if isinstance(f, Or):
        mask = 0
        for item in f.items:
            mask |= _value_mask(m, item, gctx, memo)
        return mask
    if isinstance(f, Not):
        return gctx.full_mask ^ _value_mask(m, f.body, gctx, memo)
    assert isinstance(f, Exists)
    return gctx.cylinder_mask(_value_mask(m, f.body, gctx, memo), f.ys)


def exists_set(a: PointSet, ys: Iterable[str]) -> PointSet:
    """Cylindrification: forget the listed coordinates, then restore them freely.

    A bit operation on a's mask per variable (GeoContext.cylindrify); an
    unknown variable raises ValueError.
    """
    return a.gctx.cylindrify(a, ys)


def forall_set(a: PointSet, ys: Iterable[str]) -> PointSet:
    return exists_set(a.complement(), ys).complement()


def subst_formula(s: Substitution, f: Formula) -> Formula:
    """Apply a substitution to free occurrences; refuses variable capture."""
    if isinstance(f, Eq):
        return Eq(apply_subst(s, f.lhs), apply_subst(s, f.rhs))
    if isinstance(f, Rel):
        return Rel(f.name, tuple(apply_subst(s, t) for t in f.args))
    if isinstance(f, And):
        return And(tuple(subst_formula(s, g) for g in f.items))
    if isinstance(f, Or):
        return Or(tuple(subst_formula(s, g) for g in f.items))
    if isinstance(f, Not):
        return Not(subst_formula(s, f.body))
    assert isinstance(f, Exists)
    bound = set(f.ys)
    inner = Substitution({n: t for n, t in s.bindings.items() if n not in bound})
    for n in free_vars(f.body):
        if n in bound:
            continue
        image = inner(n)
        if set(term_vars(image)) & bound:
            raise ValueError(f"substitution for {n!r} captures a bound variable")
    return Exists(f.ys, subst_formula(inner, f.body))


def halmos_axiom_violations(
    gctx: GeoContext,
    values: Sequence[PointSet],
    substitutions: Sequence[Substitution] = (),
) -> list[str]:
    """Check the quantifier and substitution axiom schemes on given data.

    Substitution schemes are tested only where their side conditions hold;
    substitutions violating the conditions are simply skipped for that pair.
    Returns human-readable descriptions of every violation found.

    Works on the values' masks: within one call each cylinder E(mask, ys)
    and each substitution's image of a mask is computed once.
    """
    for a in values:
        gctx._check(a)
    out: list[str] = []
    names = [n for n, _ in gctx.ctx.vars]
    subsets = []
    for r in range(len(names) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(names, r))
    masks = [a.mask for a in values]

    @cache
    def E(mask: int, ys: frozenset[str]) -> int:
        return gctx.cylindrify(PointSet.of_mask(gctx, mask), ys).mask

    def note(msg: str) -> None:
        out.append(msg)

    for a in masks:
        if E(a, frozenset()) != a:
            note(f"E(empty) changed a value set of size {a.bit_count()}")
        for ys in subsets:
            ea = E(a, ys)
            if a & ~ea:
                note(f"a not below E({sorted(ys)})a")
            if E(ea, ys) != ea:
                note(f"E({sorted(ys)}) not idempotent")
        for y1 in subsets:
            for y2 in subsets:
                if E(a, y1 | y2) != E(E(a, y2), y1):
                    note(f"E({sorted(y1 | y2)}) != E({sorted(y1)})E({sorted(y2)})")
    for a in masks:
        for b in masks:
            for ys in subsets:
                eb = E(b, ys)
                if E(a & eb, ys) != E(a, ys) & eb:
                    note(f"E({sorted(ys)}) fails the meet scheme")

    def image_of(act) -> Callable[[int], int]:
        return cache(lambda mask: act(PointSet.of_mask(gctx, mask)).mask)

    acts = [image_of(pull_back(s, gctx)) for s in substitutions]
    for s1, act1 in zip(substitutions, acts):
        for s2, act2 in zip(substitutions, acts):
            for ys in subsets:
                if any(s1(n) is not s2(n) for n in names if n not in ys):
                    continue
                for a in masks:
                    ea = E(a, ys)
                    if act1(ea) != act2(ea):
                        note(f"s1 E({sorted(ys)}) != s2 E({sorted(ys)}) for off-agreeing pair")
    for s, act in zip(substitutions, acts):
        for ys in subsets:
            pre: set[str] = set()
            ok = True
            seen_targets: dict[str, str] = {}
            for n in names:
                image = s(n)
                image_vars = term_vars(image)
                if len(image_vars) == 1 and image is var(image_vars[0]) and image_vars[0] in ys:
                    if seen_targets.setdefault(image_vars[0], n) != n:
                        ok = False
                    pre.add(n)
            if not ok:
                continue
            for n in names:
                if n not in pre and set(term_vars(s(n))) & ys:
                    ok = False
            if not ok:
                continue
            pre_key = frozenset(pre)
            for a in masks:
                if E(act(a), ys) != act(E(a, pre_key)):
                    note(f"E({sorted(ys)})s != s E({sorted(pre)}) despite side conditions")
    return out


def is_filter(family: Iterable[PointSet], gctx: GeoContext, cap: Optional[int] = None) -> bool:
    """Whether the family, sets of gctx, is a filter of the value algebra:
    nonempty, meet-closed, up-closed and closed under every universal
    quantifier.

    Its only filters are {full} and every set: forall over all variables
    sends every set except the full one to the empty set, which lies below
    every set.
    """
    fam = {a.mask for a in family}
    if not fam:
        return False
    n = len(gctx.points)
    check_cap("filter up-closure", 1 << n, cap)
    return fam == {gctx.full_mask} or len(fam) == 1 << n


def filter_generated(
    gens: Iterable[PointSet], gctx: GeoContext, cap: Optional[int] = None
) -> set[PointSet]:
    """Least filter containing the generators: {full} when every generator
    is the full set, and otherwise every set, since forall over all
    variables sends every set except the full one to the empty set, which
    lies below every set.
    """
    n = len(gctx.points)
    check_cap("filter generation", 1 << n, cap)
    if all(a.mask == gctx.full_mask for a in gens):
        return {gctx.full()}
    return {PointSet.of_mask(gctx, a) for a in range(1 << n)}


class SubmodelView:
    """A submodel on an op-closed subset, with maps to and from the parent.

    Its algebra is a generation of the parent's (GeneratedSubalgebra), its
    elements the generation's member positions: to_parent[s] lists sort s's
    members, and from_parent[s] is their index.
    """

    __slots__ = ("model", "to_parent", "from_parent")

    def __init__(self, model: Model, to_parent, from_parent):
        self.model = model
        self.to_parent = to_parent
        self.from_parent = from_parent

    def lift_point(self, q: Point, ctx: VarContext) -> Point:
        return tuple(self.to_parent[s][q[j]] for j, (_, s) in enumerate(ctx.vars))

    def drop_point(self, p: Point, ctx: VarContext) -> Optional[Point]:
        out = []
        for j, (_, s) in enumerate(ctx.vars):
            e = self.from_parent[s].get(p[j])
            if e is None:
                return None
            out.append(e)
        return tuple(out)


def restrict_submodel(m: Model, members: Sequence[Sequence[int]]) -> SubmodelView:
    """Restrict the model to an op-closed subset of each carrier.

    members holds one set of elements per sort, each in range, or ValueError
    is raised. The subset, in increasing order, seeds a generation of the
    model's algebra, so each element's position is its rank in its sort. The
    subset is closed iff the generation adds no member; otherwise its first
    added member names the op and arguments of the ValueError, the first
    cell, in op declaration order and then lexicographic order, that leaves
    the subset. Relations keep exactly the rows whose entries all survive.
    """
    g = m.algebra
    if len(members) != len(g.sig.sorts):
        raise ValueError("one member set per sort required")
    sub = subalgebra_generated(g, [(s, e) for s, ms in enumerate(members) for e in sorted(set(ms))])
    if sub.origin:
        _, op, combo = sub.origin[0]
        args = tuple(sub.members[s][k] for s, k in zip(op.args, combo))
        raise ValueError(f"subset is not closed under {op.name!r} at {args}")
    sub.name = f"sub({m.name})"  # before as_algebra() reads it
    return _submodel_view(m, sub)


def _submodel_view(m: Model, sub: GeneratedSubalgebra) -> SubmodelView:
    """The submodel of m on a generation of its algebra: the generation's
    as_algebra(), with m's relations mapped through its index."""
    if not all(sub.members):
        raise ValueError("carriers must be nonempty")
    rels: dict[str, frozenset[tuple[int, ...]]] = {}
    for rel, rows in m.relations.items():
        cols = [sub.index[s] for s in m.rel_sig.rels[rel]]
        mapped = (tuple(map(dict.get, cols, row)) for row in rows)
        rels[rel] = frozenset(row for row in mapped if None not in row)
    sub_model = _built_model(sub.as_algebra(), m.rel_sig, rels, f"sub({m.name})")
    return SubmodelView(sub_model, sub.members, tuple(sub.index))


class FundamentalReport(Value):
    __slots__ = _fields = ("relation", "open_formula", "positive_formula", "sub_value", "restricted_value")


def fundamental_check(
    m: Model,
    members: Sequence[Sequence[int]] | GeneratedSubalgebra,
    u: Formula,
    ctx: VarContext,
    cap: Optional[int] = None,
) -> FundamentalReport:
    """Compare the submodel value of u with the restriction of its value.

    The submodel is on members: a generation of m's algebra, which is
    closed by construction and goes straight to _submodel_view, or one
    member set per sort from outside, which restrict_submodel checks.
    relation is one of "equal", "sub-below", "sub-above", "incomparable";
    open formulas must come out equal, positive ones at least "sub-below".
    """
    if isinstance(members, GeneratedSubalgebra):
        view = _submodel_view(m, members)
    else:
        view = restrict_submodel(m, members)
    gctx_g = GeoContext(m.algebra, ctx, cap)
    gctx_h = GeoContext(view.model.algebra, ctx, cap)
    val_g = eval_formula(m, u, gctx_g)
    val_h = eval_formula(view.model, u, gctx_h)
    lifted = {view.lift_point(q, ctx) for q in val_h.points()}
    h_space = {view.lift_point(q, ctx) for q in gctx_h.points}
    restricted = {p for p in val_g.points() if p in h_space}
    if lifted == restricted:
        rel = "equal"
    elif lifted <= restricted:
        rel = "sub-below"
    elif restricted <= lifted:
        rel = "sub-above"
    else:
        rel = "incomparable"
    return FundamentalReport(
        relation=rel,
        open_formula=is_open(u),
        positive_formula=is_positive(u),
        sub_value=len(lifted),
        restricted_value=len(restricted),
    )


def fo_variety(m: Model, formulas: Iterable[Formula], gctx: GeoContext) -> PointSet:
    """Points satisfying every formula; the empty set of formulas cuts nothing.

    The formulas are evaluated in turn, all over one column memo, which
    keeps one column engine for gctx's points, and their values are met as
    masks.
    """
    mask, memo = gctx.full_mask, {}
    for u in formulas:
        if m.algebra.digest() != gctx.g.digest():
            raise ValueError("model and geometry context use different algebras")
        mask &= _value_mask(m, u, gctx, memo)
    return PointSet.of_mask(gctx, mask)


def fo_closure_member(
    m: Model, formulas: Iterable[Formula], u: Formula, gctx: GeoContext
) -> bool:
    """Is u a semantic consequence of the set, i.e. valid on its variety?"""
    return fo_variety(m, formulas, gctx).issubset(eval_formula(m, u, gctx))


class OpenVarietyReport(Value):
    __slots__ = _fields = ("agrees", "all_open", "mismatches")


def open_variety_check(
    m: Model, formulas: Sequence[Formula], gctx: GeoContext, cap: Optional[int] = None
) -> OpenVarietyReport:
    """Open formulas see only the generated submodel of each point.

    Route one evaluates membership in the whole model; route two re-evaluates
    inside the submodel generated by the point's coordinates: the submodel
    on its class's generation from point_subalgebras, numbered as that
    generation numbers its members. For open formulas the two must agree at
    every point.
    """
    direct = fo_variety(m, formulas, gctx)
    classes, of_point = point_subalgebras(gctx)
    views = []
    for _, sub in classes:
        view = _submodel_view(m, sub)
        views.append((view, fo_variety(view.model, formulas, GeoContext(view.model.algebra, gctx.ctx, cap))))
    mismatches = []
    for p, i in zip(gctx.points, of_point):
        view, value = views[i]
        q = view.drop_point(p, gctx.ctx)
        in_sub = q is not None and q in value
        if in_sub != (p in direct):
            mismatches.append(p)
    return OpenVarietyReport(
        agrees=not mismatches,
        all_open=all(is_open(u) for u in formulas),
        mismatches=tuple(mismatches),
    )


def ultrapower_model(m: Model, n: int, alpha0: int, cap: Optional[int] = None) -> Model:
    """The n-fold power with relations read through the principal index."""
    return _principal_power(m, n, alpha0, cap)[0]


def _principal_power(
    m: Model, n: int, alpha0: int, cap: Optional[int]
) -> tuple[Model, list[list[int]]]:
    """ultrapower_model's model, with the table of principal coordinates:
    entry e of sort s is the power's element e's entry at alpha0."""
    if not 0 <= alpha0 < n:
        raise ValueError("principal index out of range")
    g = m.algebra
    pw = product([g] * n, name=f"{g.name}^{n}", cap=cap)
    coord = [[index_to_tuple(e, (k,) * n)[alpha0] for e in range(pw.sizes[s])] for s, k in enumerate(g.sizes)]
    rels: dict[str, frozenset[tuple[int, ...]]] = {}
    for rel, rows in m.relations.items():
        sorts = m.rel_sig.rels[rel]
        check_cap("ultrapower relation rows", math.prod(pw.sizes[s] for s in sorts), cap)
        cols = [coord[s] for s in sorts]
        rels[rel] = frozenset(
            combo
            for combo in itertools.product(*[range(pw.sizes[s]) for s in sorts])
            if tuple(map(getitem, cols, combo)) in rows
        )
    return _built_model(pw, m.rel_sig, rels, f"{m.name}^{n}@{alpha0}"), coord


def los_check(
    m: Model,
    n: int,
    alpha0: int,
    formulas: Sequence[Formula],
    ctx: VarContext,
    cap: Optional[int] = None,
) -> list[tuple[Formula, Point]]:
    """Membership across a principal ultrapower must mirror the projected point.

    The power itself is not the ultrapower: two tuples agreeing at the
    principal coordinate are identified by the ultrafilter, so the power is
    first quotiented by that congruence. Each power point is then pushed into
    the quotient and compared against the projected base point. Returns the
    violating (formula, power point) pairs; an empty list is the expected
    outcome.
    """
    pm, coord = _principal_power(m, n, alpha0, cap)
    pw = pm.algebra
    block_ids = dense_blocks(pw, coord)
    q_alg = quotient(pw, block_ids, name=f"{pw.name}/U")
    # each relation of the power is read through the principal coordinate,
    # which the block ids renumber, so it is a union of classes: its rows map
    # onto the quotient's
    q_rels: dict[str, frozenset[tuple[int, ...]]] = {}
    for rel, rows in pm.relations.items():
        cols = [block_ids[s] for s in m.rel_sig.rels[rel]]
        q_rels[rel] = frozenset(tuple(map(getitem, cols, row)) for row in rows)
    qm = _built_model(q_alg, m.rel_sig, q_rels, f"{pm.name}/U")
    violations: list[tuple[Formula, Point]] = []
    gctx_p = GeoContext(pw, ctx, cap)
    gctx_q = GeoContext(q_alg, ctx, cap)
    gctx_b = GeoContext(m.algebra, ctx, cap)
    for u in formulas:
        top = eval_formula(qm, u, gctx_q)
        base = eval_formula(m, u, gctx_b)
        for p in gctx_p.points:
            dropped = tuple(block_ids[s][e] for (_, s), e in zip(ctx.vars, p))
            proj = tuple(coord[s][e] for (_, s), e in zip(ctx.vars, p))
            if (dropped in top) != (proj in base):
                violations.append((u, p))
    return violations


def substitution_theorem_check(
    m: Model,
    u: Formula,
    gctx: GeoContext,
    point: Optional[Point] = None,
    cap: Optional[int] = None,
) -> bool:
    """Point membership equals validity of the constant-instantiated formula.

    Each point p induces the ground substitution x -> c_{p(x)} into the
    constant-extended model; p lies in the value of u exactly when the
    instantiated formula is valid there. Pass a point to check just one.
    """
    g = gctx.g
    sig_c, _ = adjoin_constants(g.sig, g)
    g_ext = extend_with_constants(g, sig_c)
    m_ext = _built_model(g_ext, RelSignature(sig_c, _rel_decls(m)), m.relations, f"{m.name}+c")
    gctx_ext = GeoContext(g_ext, gctx.ctx, cap)
    value = eval_formula(m, u, gctx)
    full = len(gctx_ext.points)
    targets = [tuple(point)] if point is not None else list(gctx.points)
    for p in targets:
        s_p = Substitution(
            {
                name: app(constant_name(sig_c, s, p[j]))
                for j, (name, s) in enumerate(gctx.ctx.vars)
            }
        )
        grounded = subst_formula(s_p, u)
        valid = len(eval_formula(m_ext, grounded, gctx_ext)) == full
        if valid != (p in value):
            return False
    return True


def _rel_decls(m: Model) -> list[tuple[str, list[str]]]:
    return [
        (name, [m.algebra.sig.sorts[s] for s in sorts])
        for name, sorts in m.rel_sig.rels.items()
    ]


def random_formula(
    rng: random.Random,
    sig: Signature,
    ctx: VarContext,
    rel_sig: Optional[RelSignature] = None,
    depth: int = 2,
) -> Formula:
    """A random formula; atoms are equations and declared relations."""
    def atom() -> Formula:
        rels = sorted(rel_sig.rels) if rel_sig is not None else []
        if rels and rng.random() < 0.4:
            name = rels[rng.randrange(len(rels))]
            sorts = rel_sig.rels[name]
            return Rel(
                name,
                tuple(random_term(rng, sig, ctx, rng.randint(0, 1), s) for s in sorts),
            )
        srt = ctx.vars[rng.randrange(len(ctx.vars))][1]
        return Eq(
            random_term(rng, sig, ctx, rng.randint(0, 1), srt),
            random_term(rng, sig, ctx, rng.randint(0, 1), srt),
        )

    if depth <= 0:
        return atom()
    roll = rng.random()
    if roll < 0.25:
        return atom()
    if roll < 0.45:
        return And(tuple(random_formula(rng, sig, ctx, rel_sig, depth - 1) for _ in range(2)))
    if roll < 0.65:
        return Or(tuple(random_formula(rng, sig, ctx, rel_sig, depth - 1) for _ in range(2)))
    if roll < 0.8:
        return Not(random_formula(rng, sig, ctx, rel_sig, depth - 1))
    k = rng.randint(1, max(1, len(ctx.vars) // 2 + 1))
    ys = rng.sample([n for n, _ in ctx.vars], min(k, len(ctx.vars)))
    return exists_f(ys, random_formula(rng, sig, ctx, rel_sig, depth - 1))
