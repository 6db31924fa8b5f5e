import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from test_congruences import TWO, TWO_CTX
from uag import geometry, spaces
from uag.algebras import (
    GROUP_SIG,
    chain_semilattice,
    cyclic_group,
    klein_four,
    mod_ring,
    product,
    subalgebra_generated,
    symmetric_group_3,
    vee_semilattice,
)
from uag.config import CapExceeded
from uag.geometry import act_endo_variety, random_term
from uag.logic import (
    And,
    Eq,
    Model,
    Not,
    Or,
    Rel,
    RelSignature,
    eval_formula,
    exists_f,
    exists_set,
    filter_generated,
    fo_closure_member,
    fo_variety,
    forall_f,
    forall_set,
    free_vars,
    fundamental_check,
    halmos_axiom_violations,
    is_filter,
    is_open,
    is_positive,
    los_check,
    open_variety_check,
    random_formula,
    restrict_submodel,
    subst_formula,
    substitution_theorem_check,
    ultrapower_model,
)
from uag.spaces import GeoContext, PointSet
from uag.terms import Substitution, VarContext, app, var

X, Y = var("x"), var("y")


@pytest.fixture(scope="module")
def m_z4():
    z4 = cyclic_group(4)
    rel_sig = RelSignature(GROUP_SIG, [("P", ("g",)), ("R", ("g", "g"))])
    return Model(z4, rel_sig, {"P": [(1,), (3,)], "R": [(0, 0), (1, 2)]}, name="M4")


@pytest.fixture(scope="module")
def m_z2():
    z2 = cyclic_group(2)
    rel_sig = RelSignature(GROUP_SIG, [("P", ("g",))])
    return Model(z2, rel_sig, {"P": [(1,)]}, name="M2")


def test_formula_inspection():
    f = exists_f(["y"], Not(Eq(X, Y)))
    assert free_vars(f) == {"x"}
    assert not is_open(f)
    assert not is_positive(f)
    g = And((Eq(X, Y), Rel("P", (X,))))
    assert is_open(g) and is_positive(g)


def test_model_validation(m_z4):
    z4 = m_z4.algebra
    rel_sig = m_z4.rel_sig
    with pytest.raises(ValueError):
        Model(z4, rel_sig, {"P": [(9,)]})
    with pytest.raises(ValueError):
        Model(z4, rel_sig, {"Q": [(0,)]})
    with pytest.raises(ValueError):
        Model(z4, rel_sig, {"R": [(0,)]})


@pytest.mark.parametrize(
    "rows, message",
    [
        ({"R": [(0, 1), (0,)]}, "relation 'R' row has wrong arity: (0,)"),
        ({"P": [(1, 2)]}, "relation 'P' row has wrong arity: (1, 2)"),
        ({"P": [(4,)]}, "relation 'P' row out of range: (4,)"),
        ({"R": [(0, -1)]}, "relation 'R' row out of range: (0, -1)"),
    ],
)
def test_model_checks_rows_from_outside(m_z4, rows, message):
    with pytest.raises(ValueError) as e:
        Model(m_z4.algebra, m_z4.rel_sig, rows)
    assert str(e.value) == message


def test_models_the_package_builds_pass_the_outside_check(m_z4):
    """Submodels and principal powers are built unchecked; Model accepts
    each as it is, with every declared relation."""
    for m in (restrict_submodel(m_z4, [(0, 2)]).model, ultrapower_model(m_z4, 2, 1)):
        checked = Model(m.algebra, m.rel_sig, m.relations, m.name)
        assert set(m.relations) == set(m.rel_sig.rels)
        assert checked.relations == m.relations and all(type(rows) is frozenset for rows in m.relations.values())


def test_nullary_relation_is_full_or_empty(gctx2):
    z3 = cyclic_group(3)
    rel_sig = RelSignature(GROUP_SIG, [("T", ()), ("F", ())])
    m = Model(z3, rel_sig, {"T": [()]})
    gctx = GeoContext(z3, gctx2)
    assert eval_formula(m, Rel("T", ()), gctx) == gctx.full()
    assert eval_formula(m, Rel("F", ()), gctx) == gctx.empty()


def test_eval_formula_matches_oracle(m_z4, gctx2):
    gctx = GeoContext(m_z4.algebra, gctx2)
    rng = random.Random(9)
    for _ in range(30):
        f = random_formula(rng, GROUP_SIG, gctx2, rel_sig=m_z4.rel_sig, depth=2)
        got = eval_formula(m_z4, f, gctx)
        want = oracles.o_eval_formula(m_z4, f, gctx2, gctx.points)
        assert got.points() == want, f


@pytest.mark.parametrize(
    "build, names",
    [
        (symmetric_group_3, "xyz"),  # 216 points: byte columns
        (lambda: cyclic_group(17), "xy"),  # past the byte bound: tuple columns
        (lambda: product([symmetric_group_3()] * 2), "x"),  # past the byte bound
        (lambda: cyclic_group(1), "xyz"),  # one point: tuple columns
    ],
)
def test_formula_values_match_the_oracle_on_both_column_kinds(build, names):
    """eval_formula and fo_variety give the definitional oracle's points
    whichever way the engine keeps the atoms' columns. A context always has
    a point, so no formula is evaluated at none (eval_columns is tested at
    zero points)."""
    g = build()
    rng = random.Random(17)
    m = _random_model(rng, g, f"M{g.name}")
    ctx = VarContext(GROUP_SIG, [(n, "g") for n in names])
    gctx = GeoContext(g, ctx)
    formulas = [random_formula(rng, GROUP_SIG, ctx, rel_sig=m.rel_sig, depth=2) for _ in range(12)]
    want = [set(oracles.o_eval_formula(m, f, ctx, gctx.points)) for f in formulas]
    for f, points in zip(formulas, want):
        assert set(eval_formula(m, f, gctx).points()) == points, f
    for k in (0, 1, 3):
        meet = set.intersection(set(gctx.points), *want[k : k + 3])
        assert set(fo_variety(m, formulas[k : k + 3], gctx).points()) == meet


def test_a_conjunction_raises_its_first_faulty_atoms_error(m_z4, gctx2):
    """Atoms are evaluated left to right, over one memo: the first faulty
    atom's error is raised, whatever the other one's fault."""
    gctx = GeoContext(m_z4.algebra, gctx2)
    unknown_rel, unknown_op = Rel("Q", (X,)), Eq(app("h", X), Y)
    for f, message in (
        (And((unknown_rel, unknown_op)), "unknown relation 'Q'"),
        (And((unknown_op, unknown_rel)), "unknown op 'h'"),
        (Or((Not(unknown_rel), exists_f(["y"], unknown_op))), "unknown relation 'Q'"),
        (Or((exists_f(["y"], unknown_op), Not(unknown_rel))), "unknown op 'h'"),
    ):
        for fn in (eval_formula, lambda m, f, gctx: fo_variety(m, [Eq(X, X), f], gctx)):
            with pytest.raises(ValueError) as e:
                fn(m_z4, f, gctx)
            assert str(e.value) == message


def test_quantifier_sets_match_oracle(m_z4, gctx2):
    gctx = GeoContext(m_z4.algebra, gctx2)
    rng = random.Random(4)
    n = len(gctx.points)
    for _ in range(12):
        a = PointSet(gctx, rng.sample(range(n), rng.randint(0, n)))
        for ys in (["x"], ["y"], ["x", "y"], []):
            ex = exists_set(a, ys)
            fa = forall_set(a, ys)
            assert ex.points() == oracles.o_exists(a.points(), ys, gctx2, gctx.points)
            assert fa.points() == oracles.o_forall(a.points(), ys, gctx2, gctx.points)


def test_exists_rejects_unknown_variable(m_z4, gctx2):
    gctx = GeoContext(m_z4.algebra, gctx2)
    with pytest.raises(ValueError):
        exists_set(gctx.full(), ["q"])


def _group_ctx(k):
    return VarContext(GROUP_SIG, [(name, "g") for name in "xyz"[:k]])


MASK_SPACES = [
    *(GeoContext(cyclic_group(n), _group_ctx(k)) for n in (2, 3) for k in (1, 2, 3)),
    *(GeoContext(symmetric_group_3(), _group_ctx(k)) for k in (1, 2)),
    GeoContext(TWO, TWO_CTX),
]


@given(st.sampled_from(MASK_SPACES), st.data())
def test_point_set_masks_match_frozensets(gctx, data):
    n, ctx, g = len(gctx.points), gctx.ctx, gctx.g
    m1, m2 = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
    a, b = PointSet.of_mask(gctx, m1), PointSet.of_mask(gctx, m2)
    ia, ib = a.indices, b.indices
    assert ia == {i for i in range(n) if m1 >> i & 1}
    assert PointSet(gctx, ia) == a == PointSet.of_flags(gctx, [i in ia for i in range(n)])
    assert a.union(b).indices == ia | ib
    assert a.intersection(b).indices == ia & ib
    assert a.complement().indices == frozenset(range(n)) - ia
    assert a.issubset(b) == (ia <= ib)
    assert (a == b) == (ia == ib)
    assert hash(a) == hash(PointSet(gctx, ia))
    assert len(a) == len(ia)
    assert a.points() == list(a) == [gctx.points[i] for i in sorted(ia)]
    assert [p in a for p in gctx.points] == [i in ia for i in range(n)]
    for r in range(len(ctx) + 1):
        for ys in itertools.combinations(ctx.names, r):
            assert exists_set(a, ys).points() == oracles.o_exists(a.points(), ys, ctx, gctx.points)
            assert forall_set(a, ys).points() == oracles.o_forall(a.points(), ys, ctx, gctx.points)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    s = Substitution(
        {name: random_term(rng, g.sig, ctx, 2, srt) for name, srt in ctx.vars if rng.random() < 0.7}
    )
    images = [tuple(oracles.o_eval(s(name), oracles.o_env(ctx, p), g.tables) for name in ctx.names) for p in gctx.points]
    assert act_endo_variety(s, a).points() == [p for p, q in zip(gctx.points, images) if q in a]
    for bad in (-1, -m1 - 1, 1 << n, m1 | 1 << n):
        with pytest.raises(ValueError):
            PointSet.of_mask(gctx, bad)
    with pytest.raises(ValueError):
        PointSet.of_flags(gctx, [True] * (n + 1))


def test_halmos_work_counts(monkeypatch, m_z2, gctx3):
    """Each substitution's columns are evaluated once per call, and each
    variable's cylinder mask is built once per context."""
    gctx = GeoContext(m_z2.algebra, gctx3)
    values = [PointSet.of_mask(gctx, m) for m in (0, 0b1, 0b10110, 0b11111111, 0b1001)]
    subs = [
        Substitution({}),
        Substitution({"x": Y, "y": X}),
        Substitution({"x": Y}),
        Substitution({"x": app("mul", X, Y)}),
    ]
    evaluated, built = [], []
    eval_columns, low_mask = geometry.eval_columns, spaces._low_mask
    monkeypatch.setattr(geometry, "eval_columns", lambda terms, *rest: evaluated.append(terms) or eval_columns(terms, *rest))
    monkeypatch.setattr(spaces, "_low_mask", lambda *args: built.append(args) or low_mask(*args))
    for calls in (1, 2):
        assert halmos_axiom_violations(gctx, values, subs) == []
        assert len(evaluated) == calls * len(subs)
        # (points, stride, size) for z, y and x
        assert sorted(built) == [(8, 1, 2), (8, 2, 2), (8, 4, 2)]


def _halmos_input(gctx):
    """The shape of a derive-fo Halmos op: Z2 over x, y, z, twelve value
    sets of sizes 0 to 8, four substitutions."""
    rng = random.Random(11)
    by_size = {k: [m for m in range(256) if bin(m).count("1") == k] for k in range(9)}
    values = [PointSet.of_mask(gctx, rng.choice(by_size[k])) for k in (0, 1, 2, 3, 4, 4, 4, 5, 6, 7, 8, 3)]
    subs = [
        Substitution({}),
        Substitution({"x": Y, "y": X}),
        Substitution({"x": Y}),
        Substitution({"x": app("mul", X, Y)}),
    ]
    return values, subs


def test_halmos_computes_each_cylinder_and_image_once_per_call(monkeypatch, m_z2, gctx3):
    gctx = GeoContext(m_z2.algebra, gctx3)
    values, subs = _halmos_input(gctx)
    cylinders, images = [], []
    cylindrify, preimage = GeoContext.cylindrify, GeoContext.preimage

    def counted_cylindrify(self, a, ys):
        ys = frozenset(ys)
        cylinders.append((a.mask, ys))
        return cylindrify(self, a, ys)

    def counted_preimage(self, image):
        act, k = preimage(self, image), len(images)
        images.append([])
        return lambda a: images[k].append(a.mask) or act(a)

    monkeypatch.setattr(GeoContext, "cylindrify", counted_cylindrify)
    monkeypatch.setattr(GeoContext, "preimage", counted_preimage)
    per_call = []
    for _ in range(2):
        cylinders.clear()
        images.clear()
        assert halmos_axiom_violations(gctx, values, subs) == []
        assert len(cylinders) == len(set(cylinders))
        assert len(images) == len(subs)
        assert all(len(masks) == len(set(masks)) for masks in images)
        per_call.append((len(cylinders), [len(masks) for masks in images]))
    # nothing is kept from one call to the next
    assert per_call[0] == per_call[1]
    # a loop that recomputes each cylinder where it is used makes 8,508 here
    assert per_call[0][0] < 500


def test_halmos_matches_oracle_under_broken_primitives(monkeypatch, m_z2, gctx3):
    """A wrong cylindrification and a wrong substitution action, patched
    where both the library and the oracle reach them, give the same
    violations in the same order."""
    gctx = GeoContext(m_z2.algebra, gctx3)
    values, subs = _halmos_input(gctx)
    cylindrify, preimage = GeoContext.cylindrify, GeoContext.preimage

    def broken_cylindrify(self, a, ys):
        ys = frozenset(ys)
        mask = cylindrify(self, a, ys).mask
        # drops point 0 from the cylinder of a set holding it, unless z is quantified
        return PointSet.of_mask(self, mask & ~1 if a.mask & 1 and "z" not in ys else mask)

    def broken_preimage(self, image):
        act = preimage(self, image)
        # toggles point 7 whenever point 0 is in the argument
        return lambda a: PointSet.of_mask(self, act(a).mask ^ (a.mask & 1) << 7)

    monkeypatch.setattr(GeoContext, "cylindrify", broken_cylindrify)
    want = oracles.o_halmos_axiom_violations(gctx, values)
    assert want and halmos_axiom_violations(gctx, values) == want
    monkeypatch.setattr(GeoContext, "preimage", broken_preimage)
    want = oracles.o_halmos_axiom_violations(gctx, values, subs)
    assert halmos_axiom_violations(gctx, values, subs) == want
    schemes = ("E(empty)", "a not below", "not idempotent", ")E(", "meet", "off-agreeing", "side conditions")
    for scheme in schemes:
        assert any(scheme in msg for msg in want), scheme
    monkeypatch.setattr(GeoContext, "cylindrify", cylindrify)
    want = oracles.o_halmos_axiom_violations(gctx, values, subs)
    assert want and halmos_axiom_violations(gctx, values, subs) == want


def test_halmos_rejects_a_value_set_over_another_context(m_z2, gctx3):
    gctx, other = GeoContext(m_z2.algebra, gctx3), GeoContext(m_z2.algebra, gctx3)
    values = [PointSet.of_mask(gctx, 0b1011), PointSet.of_mask(other, 0b110)]
    errors = []
    for check in (oracles.o_halmos_axiom_violations, halmos_axiom_violations):
        with pytest.raises(ValueError) as e:
            check(gctx, values)
        errors.append(str(e.value))
    assert errors == ["point sets live over different contexts"] * 2


def test_large_space_tables_stay_linear():
    """On 2^16 points (Z2 over 16 variables), exists_set and pull_back stay
    within memory linear in the point count; a table of one point mask per
    fiber or per preimage would take over 100 MB here."""
    names = [f"x{i}" for i in range(16)]
    gctx = GeoContext(cyclic_group(2), VarContext(GROUP_SIG, [(nm, "g") for nm in names]))
    n = len(gctx.points)
    a = PointSet(gctx, range(0, n, 3))
    swap = Substitution({"x0": var("x15"), "x15": var("x0")})
    tracemalloc.start()
    try:
        first, last = exists_set(a, ["x0"]), exists_set(a, ["x15"])
        sa = geometry.pull_back(swap, gctx)(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20, peak
    # x0 is bit 15 of a point's index, x15 bit 0
    assert first.indices == {i for i in range(n) if i % 3 == 0 or (i ^ 1 << 15) % 3 == 0}
    assert last.indices == {i for i in range(n) if i % 3 == 0 or (i ^ 1) % 3 == 0}
    swapped = [i & ~(1 << 15 | 1) | (i & 1) << 15 | i >> 15 & 1 for i in range(n)]
    assert sa.indices == {i for i in range(n) if swapped[i] % 3 == 0}


def test_halmos_axioms_exhaustive_z2(m_z2, gctx2):
    gctx = GeoContext(m_z2.algebra, gctx2)
    n = len(gctx.points)
    values = [PointSet(gctx, [i for i in range(n) if mask >> i & 1]) for mask in range(1 << n)]
    subs = [
        Substitution({}),
        Substitution({"x": Y, "y": X}),
        Substitution({"x": Y}),
        Substitution({"x": app("mul", X, Y)}),
        Substitution({"x": app("e")}),
    ]
    assert halmos_axiom_violations(gctx, values, subs) == []


def test_subst_formula_bound_vars_and_capture():
    f = exists_f(["y"], Eq(X, Y))
    s = Substitution({"y": app("e")})
    # binding for the bound variable is dropped
    assert subst_formula(s, f) == f
    with pytest.raises(ValueError):
        subst_formula(Substitution({"x": Y}), f)


def test_subst_value_through_formula(m_z4, gctx2):
    gctx = GeoContext(m_z4.algebra, gctx2)
    s = Substitution({"x": app("mul", X, Y)})
    f = Rel("P", (X,))
    direct = eval_formula(m_z4, subst_formula(s, f), gctx)
    lifted = act_endo_variety(s, eval_formula(m_z4, f, gctx))
    assert direct == lifted


def test_filters(m_z2, gctx2):
    gctx = GeoContext(m_z2.algebra, gctx2)
    top = gctx.full()
    fam = filter_generated([top], gctx)
    assert is_filter(fam, gctx)
    assert fam == {top}
    # a non-valid generator forces the improper filter in this tiny algebra
    diag = eval_formula(m_z2, Eq(X, Y), gctx)
    fam2 = filter_generated([diag], gctx)
    assert is_filter(fam2, gctx)
    assert gctx.empty() in fam2


def _filter_spaces(sizes):
    """GeoContexts over one or two sorts whose point counts lie in sizes."""
    spaces = []
    for g in (cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(4), vee_semilattice()):
        for k in (1, 2, 3):
            spaces.append(GeoContext(g, VarContext(g.sig, [(nm, g.sig.sorts[0]) for nm in "xyz"[:k]])))
    for decls in ([("y", "b")], [("y", "b"), ("w", "b")], [("x", "a"), ("y", "b")]):
        spaces.append(GeoContext(TWO, VarContext(TWO.sig, decls)))
    return [gctx for gctx in spaces if len(gctx.points) in sizes]


def _agree_with_the_fixpoint(gctx, gens):
    got = filter_generated([PointSet.of_mask(gctx, a) for a in gens], gctx)
    want = oracles.o_filter_generated(gens, gctx)
    assert {a.mask for a in got} == want, (gctx, gens)
    assert is_filter(got, gctx)
    return want


def test_filters_match_the_fixpoint_on_small_spaces():
    """Over at most 4 points, every single generator and every pair of
    generators gives the fixpoint's filter, and is_filter agrees with the
    fixpoint's test on every family over at most 3 points and on each
    filter with one set added or taken away."""
    spaces = _filter_spaces(range(1, 5))
    assert {len(gctx.points) for gctx in spaces} == {1, 2, 3, 4}
    for gctx in spaces:
        n = len(gctx.points)
        masks = range(1 << n)
        filters = set()
        for gens in itertools.chain([()], itertools.combinations(masks, 1), itertools.combinations(masks, 2)):
            filters.add(frozenset(_agree_with_the_fixpoint(gctx, gens)))
        for fam in filters:
            for a in masks:
                for other in (fam | {a}, fam - {a}):
                    got = is_filter([PointSet.of_mask(gctx, b) for b in other], gctx)
                    assert got == oracles.o_is_filter(other, gctx), (gctx, sorted(other))
        if n <= 3:
            for bits in range(1 << (1 << n)):
                fam = {a for a in masks if bits >> a & 1}
                got = is_filter([PointSet.of_mask(gctx, a) for a in fam], gctx)
                assert got == oracles.o_is_filter(fam, gctx), (gctx, sorted(fam))


def test_filters_match_the_fixpoint_on_sampled_larger_spaces():
    """Seeded generator families over 6 to 9 points: the full set alone,
    then one or two random sets."""
    rng = random.Random(24)
    spaces = _filter_spaces(range(6, 10))
    assert {len(gctx.points) for gctx in spaces} == {6, 8, 9}
    for gctx in spaces:
        n = len(gctx.points)
        assert _agree_with_the_fixpoint(gctx, [gctx.full_mask]) == {gctx.full_mask}
        for k in (1, 2):
            _agree_with_the_fixpoint(gctx, [rng.randrange(1 << n) for _ in range(k)])
        fam = {rng.randrange(1 << n) for _ in range(5)}
        assert is_filter([PointSet.of_mask(gctx, a) for a in fam], gctx) == oracles.o_is_filter(fam, gctx)


@pytest.mark.parametrize("g", [cyclic_group(4), klein_four()], ids=lambda g: g.name)
def test_filters_over_sixteen_points_answer_at_once(g, gctx2):
    """Z4 and V4 over 2 variables: 16 points, so 65,536 sets, far under the
    cap; the fixpoint's meet loop alone would visit 65,536^2 pairs."""
    gctx = GeoContext(g, gctx2)
    fam = filter_generated([gctx.full(), PointSet.of_mask(gctx, 1)], gctx)
    assert len(fam) == 1 << 16 and gctx.empty() in fam
    assert is_filter(fam, gctx)
    assert filter_generated([gctx.full()], gctx) == {gctx.full()}
    assert not is_filter(fam - {gctx.empty()}, gctx)


def test_filter_caps_keep_their_order(gctx2):
    """S3 over 2 variables has 36 points, so 2^36 sets pass the default cap;
    an empty family is no filter before any cap is checked."""
    gctx = GeoContext(symmetric_group_3(), gctx2)
    with pytest.raises(CapExceeded, match="filter generation"):
        filter_generated([gctx.full()], gctx)
    with pytest.raises(CapExceeded, match="filter up-closure"):
        is_filter([gctx.full()], gctx)
    assert not is_filter([], gctx, cap=1)


def test_restrict_submodel_rejects_open_subset(m_z4):
    with pytest.raises(ValueError):
        restrict_submodel(m_z4, [(1, 2)])


def test_restrict_submodel_relations(m_z4):
    view = restrict_submodel(m_z4, [(0, 2)])
    assert view.model.algebra.sizes == (2,)
    # only rows inside {0,2} survive
    assert view.model.relations["R"] == {(0, 0)}
    assert view.model.relations["P"] == set()


@pytest.mark.parametrize(
    "g, members, message",
    [
        (chain_semilattice(3), [(2, -1)], "seed element -1 out of range for sort 0"),
        (cyclic_group(4), [(0, 7)], "seed element 7 out of range for sort 0"),
        (cyclic_group(4), [], "one member set per sort required"),
    ],
)
def test_restrict_submodel_checks_its_input(g, members, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        restrict_submodel(Model(g, RelSignature(g.sig)), members)


def _random_model(rng, g, name):
    rel_sig = RelSignature(g.sig, [("P", (g.sig.sorts[0],)), ("R", (g.sig.sorts[0], g.sig.sorts[-1]))])
    rows = {
        rel: [tuple(rng.randrange(g.sizes[s]) for s in sorts) for _ in range(rng.randint(0, 4))]
        for rel, sorts in rel_sig.rels.items()
    }
    return Model(g, rel_sig, rows, name=name)


def _outcome(restrict, m, members):
    """(algebra tables, digest and name, model name, relations, to_parent,
    from_parent) of a restriction, or its error text."""
    try:
        model, to_parent, from_parent = restrict(m, members)
    except ValueError as e:
        return str(e)
    alg = model.algebra
    return alg.nested(), alg.digest(), alg.name, model.name, model.relations, to_parent, from_parent


def _restrict(m, members):
    view = restrict_submodel(m, members)
    return view.model, view.to_parent, view.from_parent


def test_restrict_submodel_matches_the_cell_by_cell_oracle():
    rng = random.Random(28)
    algebras = [symmetric_group_3(), cyclic_group(4), klein_four(), chain_semilattice(3), mod_ring(3), TWO]
    closed = errors = 0
    for trial in range(400):
        g = algebras[trial % len(algebras)]
        m = _random_model(rng, g, f"M{trial}")
        members = [[rng.randrange(n) for _ in range(rng.randint(0, n + 1))] for n in g.sizes]
        want = _outcome(oracles.o_restrict_submodel, m, members)
        assert _outcome(_restrict, m, members) == want, (g.name, members)
        closed += not isinstance(want, str)
        errors += isinstance(want, str) and want.startswith("subset is not closed")
    assert closed > 50 and errors > 50


def _o_open_variety_mismatches(m, formulas, gctx):
    """open_variety_check's mismatches, each point's submodel restricted by
    the cell-by-cell oracle, in increasing order."""
    direct = fo_variety(m, formulas, gctx)
    sorts = [s for _, s in gctx.ctx.vars]
    out = []
    for p in gctx.points:
        members = subalgebra_generated(m.algebra, list(zip(sorts, p))).members
        model, _, from_parent = oracles.o_restrict_submodel(m, members)
        value = fo_variety(model, formulas, GeoContext(model.algebra, gctx.ctx))
        if (tuple(from_parent[s][e] for s, e in zip(sorts, p)) in value) != (p in direct):
            out.append(p)
    return tuple(out)


def test_open_variety_check_matches_the_cell_by_cell_oracle(gctx2):
    rng = random.Random(28)
    nonempty = 0
    for trial in range(60):
        m = _random_model(rng, [cyclic_group(4), symmetric_group_3()][trial % 2], f"M{trial}")
        gctx = GeoContext(m.algebra, gctx2)
        formulas = [random_formula(rng, GROUP_SIG, gctx2, rel_sig=m.rel_sig, depth=2) for _ in range(rng.randint(1, 3))]
        rep = open_variety_check(m, formulas, gctx)
        assert rep.mismatches == _o_open_variety_mismatches(m, formulas, gctx), formulas
        nonempty += bool(rep.mismatches)
    assert nonempty >= 4


def test_fundamental_counterexample_frozen(m_z2, gctx2):
    u = exists_f(["y"], Not(Eq(X, Y)))
    rep = fundamental_check(m_z2, [(0,)], u, gctx2)
    assert rep.relation == "sub-below"
    assert (rep.sub_value, rep.restricted_value) == (0, 1)
    assert not rep.open_formula


def test_fundamental_open_formulas_equal(m_z4, gctx2):
    rng = random.Random(6)
    g = m_z4.algebra
    for _ in range(15):
        seeds = [rng.randrange(4) for _ in range(rng.randint(1, 2))]
        members = list(subalgebra_generated(g, seeds).members)
        u = random_formula(rng, GROUP_SIG, gctx2, rel_sig=m_z4.rel_sig, depth=2)
        if not is_open(u):
            continue
        rep = fundamental_check(m_z4, members, u, gctx2)
        assert rep.relation == "equal", u


@pytest.fixture(scope="module")
def m_s3():
    rel_sig = RelSignature(GROUP_SIG, [("P", ("g",)), ("R", ("g", "g"))])
    return Model(symmetric_group_3(), rel_sig, {"P": [(1,), (4,)], "R": [(0, 1), (2, 3), (5, 5)]})


def test_fundamental_check_takes_a_generation_as_it_is(m_z4, m_s3, gctx2):
    """A generation the package built goes to the submodel view as it is,
    its members numbered in discovery order; the report is the one its
    member sets, checked and renumbered by rank, give."""
    rng = random.Random(8)
    for m in (m_z4, m_s3):
        g = m.algebra
        for _ in range(30):
            sub = subalgebra_generated(g, [rng.randrange(g.sizes[0]) for _ in range(rng.randint(1, 2))])
            u = random_formula(rng, GROUP_SIG, gctx2, rel_sig=m.rel_sig, depth=2)
            assert fundamental_check(m, sub, u, gctx2) == fundamental_check(m, list(sub.members), u, gctx2), u


def test_positive_formulas_are_at_least_sub_below_on_generated_submodels(m_z4, m_s3, gctx2):
    """A positive formula true at a point of a submodel is true there in the
    model, so its submodel value lies inside the restriction of its value:
    the relation is "equal" or "sub-below", never "sub-above" or
    "incomparable". Checked on random generated submodels of S3 with no
    relations and of the relation-bearing Z4 and S3 models."""
    s3 = Model(symmetric_group_3(), RelSignature(GROUP_SIG, []), {})
    rng = random.Random(0)
    seen = set()
    for m in (s3, m_z4, m_s3):
        g = m.algebra
        for _ in range(200):
            sub = subalgebra_generated(g, [rng.randrange(g.sizes[0]) for _ in range(rng.randint(1, 2))])
            u = random_formula(rng, GROUP_SIG, gctx2, rel_sig=m.rel_sig, depth=2)
            while not is_positive(u):
                u = random_formula(rng, GROUP_SIG, gctx2, rel_sig=m.rel_sig, depth=2)
            rep = fundamental_check(m, sub, u, gctx2)
            assert rep.positive_formula and rep.relation in ("equal", "sub-below"), (m.name, sub.members, u)
            seen.add(rep.relation)
    # relations and quantifiers make some submodel values strictly smaller
    assert seen == {"equal", "sub-below"}


def test_fo_variety_and_member(m_z4, gctx1, gctx2):
    gctx = GeoContext(m_z4.algebra, gctx1)
    v = fo_variety(m_z4, [Rel("P", (X,))], gctx)
    assert v.points() == [(1,), (3,)]
    # anything true at both odd points is in the closure
    assert fo_closure_member(m_z4, [Rel("P", (X,))], Not(Eq(X, app("e"))), gctx)
    assert not fo_closure_member(m_z4, [Rel("P", (X,))], Eq(X, app("e")), gctx)


def test_open_variety_check(m_z4, gctx2):
    formulas = [Or((Eq(X, Y), Rel("R", (X, Y))))]
    rep = open_variety_check(m_z4, formulas, GeoContext(m_z4.algebra, gctx2))
    assert rep.all_open and rep.agrees and not rep.mismatches


def test_ultrapower_los(m_z2, m_z4, gctx2):
    up = ultrapower_model(m_z2, 3, alpha0=1)
    assert up.algebra.sizes == (8,)
    # the elements whose middle coordinate is 1
    assert up.relations["P"] == {(2,), (3,), (6,), (7,)}
    up4 = ultrapower_model(m_z4, 2, alpha0=0)
    assert up4.relations["R"] == {(a, b) for a in range(16) for b in range(16) if (a // 4, b // 4) in {(0, 0), (1, 2)}}
    formulas = [
        Rel("P", (X,)),
        exists_f(["y"], Eq(X, app("mul", Y, Y))),
        Not(Rel("P", (app("mul", X, X),))),
    ]
    assert los_check(m_z2, 3, 1, formulas, gctx2) == []


@pytest.mark.parametrize("seed", range(8))
def test_los_holds_on_random_models_with_relations(seed):
    """Łoś's theorem for principal ultrapowers: on a random Z2, Z3, V4 or S3
    model with a unary and a binary relation, every formula, each with a
    relation atom, holds at a power point iff it holds at the projected
    point, at every principal coordinate of the 2nd or 3rd power (S3's
    2nd)."""
    rng = random.Random(seed)
    g = [cyclic_group(2), cyclic_group(3), klein_four(), symmetric_group_3()][seed % 4]
    k = g.sizes[0]
    rel_sig = RelSignature(GROUP_SIG, [("P", ("g",)), ("R", ("g", "g"))])
    rows = {
        "P": [row for row in itertools.product(range(k), repeat=1) if rng.random() < 0.5],
        "R": [row for row in itertools.product(range(k), repeat=2) if rng.random() < 0.4],
    }
    m = Model(g, rel_sig, rows)
    ctx = VarContext(GROUP_SIG, [("x", "g"), ("y", "g")])
    formulas = [
        Rel("P", (app("mul", X, Y),)),
        Or((Not(Rel("R", (X, app("inv", Y)))), Eq(X, Y))),
        exists_f(["y"], And((Rel("R", (X, Y)), Rel("P", (Y,))))),
        *(random_formula(rng, GROUP_SIG, ctx, rel_sig, 2) for _ in range(2)),
    ]
    n = 2 if g.name == "S3" else 2 + seed // 4
    for alpha0 in range(n):
        assert los_check(m, n, alpha0, formulas, ctx) == [], (alpha0, rows)


def test_substitution_theorem(m_z2, gctx2):
    gctx = GeoContext(m_z2.algebra, gctx2)
    rng = random.Random(12)
    for _ in range(10):
        u = random_formula(rng, GROUP_SIG, gctx2, rel_sig=m_z2.rel_sig, depth=2)
        assert substitution_theorem_check(m_z2, u, gctx)
