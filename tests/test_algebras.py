import functools
import gc
import itertools
import math
import random
import re
import time
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uag import algebras, geometry
from uag.algebras import (
    FiniteAlgebra,
    GROUP_SIG,
    RING_SIG,
    SEMILATTICE_SIG,
    chain_semilattice,
    cyclic_group,
    enumerate_homs,
    enumerate_points,
    eval_columns,
    extend_with_constants,
    generate,
    inferred_context,
    klein_four,
    mod_ring,
    point_count,
    product,
    quotient,
    satisfies_identity,
    subalgebra_generated,
    symmetric_group_3,
    unit_algebra,
    index_to_tuple,
    vee_semilattice,
)
from uag.config import DEFAULT_CAP, CapExceeded, get_cap
from uag.congruences import h_ker, kernel_of_point
from uag.geometry import closure_variety, coordinate_algebra, separating_pair
from uag.logic import Model, RelSignature, restrict_submodel
from uag.sexpr import load_workspace
from uag.spaces import GeoContext, PointSet
from uag.terms import (
    App,
    Signature,
    Substitution,
    VarContext,
    adjoin_constants,
    app,
    apply_subst,
    render,
    sort_of,
    subterm_universe,
    term_vars,
    var,
)


def test_eval_frozen_value(z4, gctx2):
    t = app("inv", app("mul", var("x"), var("y")))
    assert eval_columns([t], [(1, 2)], z4, gctx2) == [(0, [1])]


def test_eval_matches_oracle(s3, gctx2, r5, rctx2):
    t = app("mul", app("inv", var("x")), app("mul", var("y"), var("x")))
    terms = [t, var("y"), app("e"), app("inv", t)]
    points = enumerate_points(gctx2, s3)
    sorted_cols = eval_columns(terms, points, s3, gctx2)
    assert [s for s, _ in sorted_cols] == [0, 0, 0, 0]
    cols = [col for _, col in sorted_cols]
    for i, p in enumerate(points):
        assert [col[i] for col in cols] == [oracles.o_eval(u, oracles.o_env(gctx2, p), s3.tables) for u in terms]
    ring = app("add", app("mul", var("x"), app("two")), app("one"))
    ring_points = enumerate_points(rctx2, r5)
    assert eval_columns([ring], ring_points, r5, rctx2) == [
        (0, [oracles.o_eval(ring, oracles.o_env(rctx2, p), r5.tables) for p in ring_points])
    ]
    assert eval_columns(terms, [], s3, gctx2) == [(0, [])] * 4
    for bad in (var("w"), app("nope", var("x")), app("mul", var("x")), app("e", var("x"))):
        with pytest.raises(ValueError):
            eval_columns([bad], points, s3, gctx2)
    # an ill-sorted argument must not be read off another sort's table row
    two = Signature(("a", "b"), [("f", ("b",), "a")])
    g2 = FiniteAlgebra(two, (3, 2), {"f": {(0,): 1, (1,): 2}})
    ctx2 = VarContext(two, [("x", "a"), ("y", "b")])
    points2 = enumerate_points(ctx2, g2)
    assert eval_columns([app("f", var("y")), var("y")], points2, g2, ctx2) == [(0, [1, 2] * 3), (1, [0, 1] * 3)]
    with pytest.raises(ValueError):
        eval_columns([app("f", var("x"))], points2, g2, ctx2)


GROUP_CTX3 = VarContext(GROUP_SIG, [("x", "g"), ("y", "g"), ("z", "g")])


@pytest.mark.parametrize(
    "build, count, kind",
    [
        (symmetric_group_3, None, bytes),  # all 216 points, within the byte bound
        (lambda: cyclic_group(17), 60, tuple),  # mul has 289 cells: past the byte bound
        (lambda: product([symmetric_group_3()] * 2), 60, tuple),  # mul has 1296 cells
        (symmetric_group_3, 1, tuple),
        (symmetric_group_3, 0, tuple),
    ],
)
def test_eval_columns_match_the_oracle_on_both_column_kinds(build, count, kind):
    """Random terms over three variables evaluate as the recursive oracle
    does, whichever way the engine keeps their columns: bytes for S3 at
    many points, tuples past the byte bound and at one point, empty tuples
    at none. eval_columns hands them out as lists either way."""
    g = build()
    rng = random.Random(31)
    points = enumerate_points(GROUP_CTX3, g)
    if count is not None:
        points = rng.sample(points, count)
    terms = [geometry.random_term(rng, GROUP_SIG, GROUP_CTX3, rng.randint(0, 4)) for _ in range(40)]
    terms += [app("e"), app("mul", app("e"), var("z"))]
    got = eval_columns(terms, points, g, GROUP_CTX3)
    envs = [oracles.o_env(GROUP_CTX3, p) for p in points]
    assert got == [(0, [oracles.o_eval(t, env, g.tables) for env in envs]) for t in terms]
    engine_cols = algebras._eval_columns(terms, points, g, GROUP_CTX3, {})
    assert {type(col) for _, col in engine_cols} == {kind}
    assert [(s, list(col)) for s, col in engine_cols] == got
    # both sides of a pair agree exactly where the oracle says they do
    for (lhs, rhs), u, w in zip(algebras.eval_pairs(zip(terms, terms[1:]), points, g, GROUP_CTX3), terms, terms[1:]):
        flags = [oracles.o_eval(u, env, g.tables) == oracles.o_eval(w, env, g.tables) for env in envs]
        assert algebras.agree_mask(lhs, rhs) == sum(1 << i for i, ok in enumerate(flags) if ok)


EVAL_SIG = Signature(
    ("a", "b"),
    [("f", ("b",), "a"), ("m", ("a", "a"), "a"), ("g", ("a", "b"), "b"), ("c", (), "a"), ("t", ("a", "b", "a"), "a")],
)
EVAL_ALG = FiniteAlgebra(
    EVAL_SIG,
    (3, 2),
    {
        "f": {(0,): 1, (1,): 2},
        "m": {(i, j): (i + 2 * j) % 3 for i in range(3) for j in range(3)},
        "g": {(i, j): (i * j + i) % 2 for i in range(3) for j in range(2)},
        "c": {(): 2},
        "t": {(i, j, k): (i * k + j) % 3 for i in range(3) for j in range(2) for k in range(3)},
    },
)
EVAL_CTX = VarContext(EVAL_SIG, [("x", "a"), ("y", "b")])


@pytest.mark.parametrize(
    "term, message",
    [
        (var("w"), "unknown variable 'w'"),
        (app("h", var("x")), "unknown op 'h'"),
        (app("c", var("x")), "op 'c': expected 0 arguments, got 1"),
        (app("f", var("y"), var("y")), "op 'f': expected 1 arguments, got 2"),
        (app("m", var("x")), "op 'm': expected 2 arguments, got 1"),
        (app("f", var("x")), "op 'f': argument of sort 'a', expected 'b'"),
        (app("m", var("x"), var("y")), "op 'm': argument of sort 'b', expected 'a'"),
        (app("m", var("y"), app("h", var("x"))), "op 'm': argument of sort 'b', expected 'a'"),
        (app("m", app("h", var("x")), var("y")), "unknown op 'h'"),
        (app("g", var("x"), var("x")), "op 'g': argument of sort 'a', expected 'b'"),
        (app("g", app("f", var("x")), app("h", var("y"))), "op 'f': argument of sort 'a', expected 'b'"),
        (app("t", var("x"), var("x"), app("h", var("y"))), "op 't': argument of sort 'a', expected 'b'"),
        (app("t", var("x"), var("y"), var("y")), "op 't': argument of sort 'b', expected 'a'"),
    ],
)
def test_eval_columns_errors_and_their_order(term, message):
    """Each ill-formed term raises the first error of a left-to-right walk:
    an argument is checked before the next one is evaluated."""
    points = enumerate_points(EVAL_CTX, EVAL_ALG)
    for pts in (points, []):
        with pytest.raises(ValueError) as e:
            eval_columns([app("c"), term], pts, EVAL_ALG, EVAL_CTX)
        assert str(e.value) == message


def test_eval_columns_by_arity_matches_oracle():
    """Nullary, unary, binary and ternary ops, nested across both sorts."""
    x, y = var("x"), var("y")
    fy = app("f", y)
    family = [
        app("c"),
        fy,
        app("m", fy, x),
        app("g", app("m", x, app("c")), y),
        app("t", fy, app("g", x, y), app("m", x, x)),
    ]
    points = enumerate_points(EVAL_CTX, EVAL_ALG)
    got = eval_columns(family, points, EVAL_ALG, EVAL_CTX)
    assert [s for s, _ in got] == [0, 0, 0, 1, 0]
    for t, (_, col) in zip(family, got):
        assert col == [oracles.o_eval(t, oracles.o_env(EVAL_CTX, p), EVAL_ALG.tables) for p in points]


def _loose_terms(rng):
    """One to three terms over EVAL_SIG, up to 50 deep, built bottom-up from
    a pool of the terms built so far, so subterms are shared. A family draws
    a fault rate; at rate 0 every term is well-sorted, and otherwise an
    unknown op h, wrong arities, an unknown variable z and arguments of any
    sort turn up."""
    faults = rng.choice([0, 0.02, 0.1])
    pool = [var("x"), app("c"), var("y"), var("z")]
    sort = {id(var("x")): 0, id(app("c")): 0, id(var("y")): 1, id(var("z")): None}
    for _ in range(rng.randint(1, 120)):
        op = rng.choice(EVAL_SIG.ops)
        args = []
        for i, want in enumerate(op.args):
            fit = [t for t in pool if sort[id(t)] == want]
            if rng.random() < faults:
                args.append(rng.choice(pool))
            elif i == 0 and rng.random() < 0.8:
                args.append(max(fit, key=lambda t: t.depth))  # so depth grows
            else:
                args.append(rng.choice(rng.choice([fit, fit[:3]])))  # often a small term
        if rng.random() < faults:
            args = args[: rng.randint(0, len(args))] + [rng.choice(pool)] * rng.randint(0, 1)
        name = "h" if rng.random() < faults else op.name
        t = app(name, *args)
        if t.depth <= 50 and t.size <= 1000:
            ok = name == op.name and len(args) == op.arity and all(sort[id(a)] == w for a, w in zip(args, op.args))
            sort[id(t)] = op.result if ok else None
            pool.append(t)
    return [rng.choice(pool) for _ in range(rng.randint(0, 1))] + pool[-rng.randint(1, 3) :]


def _value_or_error(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return "error: " + str(e)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_term_walks_match_their_recursive_oracles(seed):
    """Each loop over a postorder gives its recursive oracle's value, or the
    error of the first fault a left-to-right recursion meets."""
    rng = random.Random(seed)
    family = _loose_terms(rng)
    sub = Substitution({"x": rng.choice(family), "y": app("g", var("x"), var("y"))})
    for t in family:
        assert term_vars(t) == oracles.o_term_vars(t)
        assert apply_subst(sub, t) is oracles.o_apply_subst(sub, t)
        assert _value_or_error(sort_of, t, EVAL_SIG, EVAL_CTX) == _value_or_error(
            oracles.o_sort_of, t, EVAL_SIG, EVAL_CTX
        )
    assert _value_or_error(lambda: inferred_context(EVAL_SIG, family).vars) == _value_or_error(
        lambda: oracles.o_inferred_context(EVAL_SIG, family).vars
    )
    universe = subterm_universe(family)
    assert len(universe) == len(oracles.o_subterms(family))
    assert set(map(id, universe)) == set(map(id, oracles.o_subterms(family)))
    position = {id(u): i for i, u in enumerate(universe)}
    assert all(position[id(a)] < position[id(u)] for u in universe if isinstance(u, App) for a in u.args)
    points = enumerate_points(EVAL_CTX, EVAL_ALG)
    want = []
    for t in family:
        s = _value_or_error(oracles.o_sort_of, t, EVAL_SIG, EVAL_CTX)
        if isinstance(s, str):
            # eval_columns names no argument in a sort mismatch
            want = re.sub(r"argument .* has sort", "argument of sort", s)
            break
        want.append((s, [oracles.o_eval(t, oracles.o_env(EVAL_CTX, p), EVAL_ALG.tables) for p in points]))
    assert _value_or_error(eval_columns, family, points, EVAL_ALG, EVAL_CTX) == want


def test_term_walks_on_a_shared_and_a_deep_term(z4, s3):
    """Each walk visits a shared subterm once, at any depth. x doubled 24
    times has 25 distinct subterms but 2**25 - 1 occurrences, each of which a
    walk by occurrence would visit; inv applied 5000 times is past the
    recursion limit. Values are checked against closed forms."""
    doubled, chain = var("x"), var("x")
    for _ in range(24):
        doubled = app("mul", doubled, doubled)
    for _ in range(5000):
        chain = app("inv", chain)
    ctx = VarContext(GROUP_SIG, [("x", "g")])
    start = time.perf_counter()
    for t, distinct in ((doubled, 25), (chain, 5001)):
        assert sort_of(t, GROUP_SIG, ctx) == 0
        assert term_vars(t) == ["x"]
        assert inferred_context(GROUP_SIG, [t]).vars == ctx.vars
        assert len(subterm_universe([t])) == distinct
        image = apply_subst(Substitution({"x": app("inv", var("y"))}), t)
        assert term_vars(image) == ["y"] and len(subterm_universe([image])) == distinct + 1
    for g in (z4, s3, cyclic_group(5)):
        points = enumerate_points(ctx, g)
        squared = [p[0] for p in points]
        for _ in range(24):
            squared = [g.apply("mul", (a, a)) for a in squared]
        # x^(2^24), and inv^(2k) x = x in every group
        assert eval_columns([doubled, chain], points, g, ctx) == [(0, squared), (0, [p[0] for p in points])]
    assert time.perf_counter() - start < 5


def test_term_walks_leave_no_cyclic_garbage():
    """The walks build no self-referencing closures, so with the collector
    off they leave nothing for it to collect."""
    x, y = var("x"), var("y")
    fy = app("f", y)
    family = [app("t", fy, app("g", x, y), app("m", fy, fy)), app("m", x, app("c")), x]
    points = enumerate_points(EVAL_CTX, EVAL_ALG)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            eval_columns(family, points, EVAL_ALG, EVAL_CTX)
            inferred_context(EVAL_SIG, family)
            subterm_universe(family)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_inferred_context_and_term_vars_at_depth():
    t = var("x")
    for _ in range(5000):
        t = app("inv", t)
    assert inferred_context(GROUP_SIG, [t, app("e")]).vars == VarContext(GROUP_SIG, [("x", "g")]).vars
    assert term_vars(t) == ["x"]
    chain = var("y")
    for _ in range(5000):
        chain = app("m", chain, var("x"))
    with pytest.raises(ValueError, match="^variable 'y' used at two sorts$"):
        inferred_context(EVAL_SIG, [app("g", chain, var("y"))])


def test_enumerate_points_lexicographic(z3, gctx2):
    pts = enumerate_points(gctx2, z3)
    assert pts == sorted(pts)
    assert len(pts) == point_count(gctx2, z3) == 9


def test_unit_algebra():
    one = unit_algebra(GROUP_SIG)
    assert one.sizes == (1,)
    assert one.apply("mul", (0, 0)) == 0


def test_subalgebra_witnesses(z4):
    sub = subalgebra_generated(z4, [1], gen_names=["x"])
    assert sub.size() == 4
    ctx = sub.generator_context()
    for e in range(4):
        w = sub.witness_of(0, e)
        assert eval_columns([w], [(1,)], z4, ctx) == [(0, [e])]


def test_subalgebra_discovery_order(z4):
    # from the generator 1: seed first, then mul, inv, e in declaration order
    sub = subalgebra_generated(z4, [1], gen_names=["x"])
    assert sub.members[0] == (1, 2, 3, 0)
    assert render(sub.witness_of(0, 2)) == "(mul x x)"


def test_subalgebra_proper(s3):
    # an involution generates a two-element subgroup
    sub = subalgebra_generated(s3, [1])
    assert sub.size() == 2
    alg = sub.as_algebra()
    assert alg.sizes == (2,)


def test_enumerate_homs_against_oracle(z4, z2, z3, klein, chain2, chain3, vee):
    for a, b in [(z4, z2), (z2, z4), (z3, z3), (klein, z2), (z4, klein)]:
        got = enumerate_homs(a, b)
        want = sorted(oracles.o_homs(a, b))
        assert got == want
    for a, b in [(chain2, chain3), (chain3, chain2), (vee, chain2)]:
        assert enumerate_homs(a, b) == sorted(oracles.o_homs(a, b))


def test_hom_counts_frozen(z4, z2, z3):
    assert len(enumerate_homs(z4, z2)) == 2
    assert len(enumerate_homs(z2, z3)) == 1
    assert len(enumerate_homs(z3, z3)) == 3


def _homs_three_ways(sub, targets) -> None:
    """A generation's homs, searched from its seeds, equal its algebra's,
    searched from the greedy set, and o_homs wherever it filters at most
    8000 maps; h_ker agrees on both routes."""
    alg = sub.as_algebra()
    for b in targets:
        got = enumerate_homs(sub, b)
        assert got == enumerate_homs(alg, b), (sub.name, b.name)
        if math.prod(b.sizes[s] ** n for s, n in enumerate(alg.sizes)) <= 8000:
            assert got == sorted(oracles.o_homs(alg, b)), (sub.name, b.name)
        assert h_ker(sub, b) == h_ker(alg, b)


def test_hom_search_from_point_subalgebras(z2, z3, z4, klein, s3, gctx2):
    """Over C2, S_p of every point class of Z4, V4 and S3, into each group."""
    targets = [z2, z3, z4, klein, s3]
    for g in (z4, klein, s3):
        classes, _ = geometry.point_subalgebras(GeoContext(g, gctx2))
        assert len(classes) > 1
        for _, sub in classes:
            _homs_three_ways(sub, targets)


def test_hom_search_pins_seeds_on_constants_and_repeats(s3):
    """Of the seeds e, e and a, only a is searched, so the cap counts |S3|
    candidates: e has one image, and so has a repeat of a seed."""
    sub = subalgebra_generated(s3, [0, 0, 1])
    assert sub.seeds == ((0, 0), (0, 0), (0, 1))
    assert enumerate_homs(sub, s3, cap=6) == enumerate_homs(sub.as_algebra(), s3)
    with pytest.raises(CapExceeded, match="hom search: 6 exceeds cap 5"):
        enumerate_homs(sub, s3, cap=5)


@settings(max_examples=20)
@given(st.integers(0, 2), st.lists(st.integers(0, 35), min_size=1, max_size=3))
def test_hom_search_from_kernel_images(which, picks):
    """The image of the kernel of a random point set's coordinate algebra,
    over C2, on up to three points."""
    g = (cyclic_group(4), klein_four(), symmetric_group_3())[which]
    gctx = GeoContext(g, VarContext(GROUP_SIG, [("x", "g"), ("y", "g")]))
    a = PointSet(gctx, [i % len(gctx.points) for i in picks])
    _homs_three_ways(coordinate_algebra(a).kernel().image(), [cyclic_group(2), g])


def test_greedy_generators_are_found_once_per_algebra(monkeypatch, s3):
    """Every cached generating set generates its algebra, and an algebra
    object searches for it once, however many h_ker calls it serves."""
    for a in [*(f for family in _hom_families() for f in family), s3]:
        gen = a.generation()
        seed = [(s, gen.members[s][pos]) for s, pos in gen.seeds]
        assert subalgebra_generated(a, seed).size() == sum(a.sizes)
        assert a.generation() is gen
    found = []
    real = algebras._greedy_generators
    monkeypatch.setattr(algebras, "_greedy_generators", lambda g: found.append(g) or real(g))
    a = product([cyclic_group(2), cyclic_group(4)])
    h_ker(a, cyclic_group(4))
    h_ker(a, cyclic_group(2))
    assert found == [a]


def test_hom_extension_rejects(z4, z2, z3):
    sub = subalgebra_generated(z4, [1])
    # 1 -> 1 into Z3 breaks at 0 = 1*4 -> 1; into Z2 it is the mod-2 surjection
    assert oracles.o_extend(sub, [1], z3) is None
    ok = oracles.o_extend(sub, [1], z2)
    assert ok is not None and ok[0][sub.index[0][3]] == 1 and ok[0][sub.index[0][2]] == 0
    # all images at once over byte columns, and one image over a tuple row
    for b, flags in ((z3, b"\x01\x00\x00"), (z2, b"\x01\x01")):
        points = [(v,) for v in range(b.sizes[0])]
        assert sub.extend_all(points, b)[0] == flags
        for p, flag in zip(points, flags):
            one, cols = sub.extend_all([p], b)
            assert one[0] == flag == (oracles.o_extend(sub, p, b) is not None)
            assert not flag or [[col[0] for col in cs] for cs in cols] == oracles.o_extend(sub, p, b)


def test_product_mixed_radix(z2, z3):
    p = product([z2, z3])
    assert p.sizes == (6,)
    # first factor most significant
    assert oracles.o_tuple_to_index((1, 2), [2, 3]) == 5
    assert index_to_tuple(5, [2, 3]) == (1, 2)
    x = oracles.o_tuple_to_index((1, 1), [2, 3])
    y = oracles.o_tuple_to_index((0, 2), [2, 3])
    want = oracles.o_tuple_to_index(((1 + 0) % 2, (1 + 2) % 3), [2, 3])
    assert p.apply("mul", (x, y)) == want


# nullary, unary, binary and ternary ops over one and two sorts; the
# signature without a ternary op keeps small powers within the byte bound
RANDOM_SIGS = [
    Signature(("a",), [("c", (), "a"), ("f", ("a",), "a"), ("m", ("a", "a"), "a")]),
    Signature(("a",), [("c", (), "a"), ("m", ("a", "a"), "a"), ("t", ("a", "a", "a"), "a")]),
    Signature(("a", "b"), [("c", (), "b"), ("f", ("a",), "b"), ("m", ("b", "a"), "a"), ("t", ("a", "b", "a"), "b")]),
]


def random_algebra(rng: random.Random, sig: Signature, name: str) -> FiniteAlgebra:
    sizes = [rng.randint(1, 3) for _ in sig.sorts]
    tables = {
        op.name: {args: rng.randrange(sizes[op.result]) for args in itertools.product(*[range(sizes[s]) for s in op.args])}
        for op in sig.ops
    }
    return FiniteAlgebra(sig, sizes, tables, name=name)


def test_product_matches_the_cell_by_cell_oracle():
    """product is a generation; its tables, digest and name are those of the
    cell-by-cell product, on powers of one object and on distinct factors."""
    rng = random.Random(28)
    kinds = set()
    for trial in range(300):
        sig = rng.choice(RANDOM_SIGS)
        pool = [random_algebra(rng, sig, f"A{trial}_{i}") for i in range(2)]
        gs = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        sizes = [math.prod(g.sizes[s] for g in gs) for s in range(len(sig.sorts))]
        if sum(math.prod(sizes[s] for s in op.args) for op in sig.ops) > 3000:
            continue
        name = rng.choice([None, "P"])
        got, want = product(gs, name=name), oracles.o_product(gs, name=name)
        assert (got.sizes, got.nested(), got.digest(), got.name) == (want.sizes, want.nested(), want.digest(), want.name)
        kinds.add((len(sig.sorts), len(gs), len(set(map(id, gs)))))
    assert {(1, 3, 1), (1, 3, 2), (2, 2, 1), (2, 2, 2)} <= kinds


def test_product_caps_its_cells_then_its_elements(z4):
    """Every element of a product seeds its generation, so the cap bounds
    the elements as well as the table cells: a sort that is no op's
    argument has elements but no cells."""
    with pytest.raises(CapExceeded, match=re.escape("product tables: 273 exceeds cap 272")):
        product([z4, z4], cap=272)
    assert product([z4, z4], cap=273).sizes == (16,)
    sig = Signature(("a", "b"), [("f", ("a",), "a")])
    g = FiniteAlgebra(sig, (2, 30), {"f": {(0,): 1, (1,): 0}})
    with pytest.raises(CapExceeded, match=re.escape("product members: 904 exceeds cap 100")):
        product([g, g], cap=100)
    assert product([g, g], cap=904).sizes == (4, 900)


def test_quotient_rejects_non_congruence(z4):
    # labels per element: {0,1} and {2,3} are not mul-compatible in Z4
    with pytest.raises(ValueError, match="not a congruence"):
        quotient(z4, [[0, 0, 1, 1]])


def test_quotient_by_h_ker(z4, z2):
    hk = h_ker(z4, z2)
    assert [sorted(b) for b in _blocks(hk)] == [[0, 2], [1, 3]]
    q = quotient(z4, hk)
    assert q.sizes == (2,)
    assert q.apply("mul", (1, 1)) == 0


def _blocks(hk):
    groups = {}
    for e, b in enumerate(hk.block_ids[0]):
        groups.setdefault(b, []).append(e)
    return list(groups.values())


def test_h_ker_against_oracle(z4, z2, z3, klein, chain3, chain2):
    for g, h in [(z4, z2), (z4, z3), (klein, z2), (z3, z2), (chain3, chain2)]:
        hk = h_ker(g, h)
        want = oracles.o_h_ker_blocks(g, h)[0]
        assert sorted(sorted(b) for b in _blocks(hk)) == want


def test_satisfies_identity_vs_oracle(s3, z3, gctx2):
    comm = (app("mul", var("x"), var("y")), app("mul", var("y"), var("x")))
    assert satisfies_identity(z3, comm) is True
    assert satisfies_identity(s3, comm) is False
    assert satisfies_identity(s3, comm) == oracles.o_identity_holds(s3, gctx2, comm)


def test_inferred_context_sorts():
    t = app("mul", var("a"), app("inv", var("b")))
    ctx = inferred_context(GROUP_SIG, [t])
    assert ctx.names == ("a", "b")
    assert ctx.sort_of("a") == 0


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=4))
def test_product_projections_are_homs(n, m):
    a, b = cyclic_group(n), cyclic_group(m)
    p = product([a, b])
    for x in range(n * m):
        for y in range(n * m):
            xt, yt = index_to_tuple(x, [n, m]), index_to_tuple(y, [n, m])
            z = p.apply("mul", (x, y))
            zt = index_to_tuple(z, [n, m])
            assert zt == ((xt[0] + yt[0]) % n, (xt[1] + yt[1]) % m)


def test_the_environment_does_not_set_the_cap(monkeypatch):
    monkeypatch.setenv("UAG_CAP", "5")
    assert get_cap() == DEFAULT_CAP
    assert get_cap(7) == 7


def _two_sorted():
    """Sorts a (3) and b (2) with binary, unary and nullary ops."""
    sig = Signature(
        ("a", "b"),
        [("m", ("a", "a"), "a"), ("f", ("b",), "a"), ("h", ("a",), "b"), ("c", (), "a"), ("d", (), "b")],
    )
    tables = {
        "m": {(i, j): (i * j + 1) % 3 for i in range(3) for j in range(3)},
        "f": {(0,): 0, (1,): 2},
        "h": {(0,): 1, (1,): 0, (2,): 1},
        "c": {(): 2},
        "d": {(): 0},
    }
    g = FiniteAlgebra(sig, (3, 2), tables, name="T")
    return g, VarContext(sig, [("x", "a"), ("y", "b")])


def _cross_cases():
    def single(g, names, pick):
        ctx = VarContext(g.sig, [(n, g.sig.sorts[0]) for n in names])
        return g, ctx, pick(enumerate_points(ctx, g))

    two, two_ctx = _two_sorted()
    return [
        (*single(cyclic_group(4), "xy", lambda pts: pts[::3]), bytes),
        (*single(symmetric_group_3(), "xy", lambda pts: pts[1:17:2]), bytes),
        (*single(chain_semilattice(3), "xyz", lambda pts: pts), bytes),
        (*single(mod_ring(3), "xy", lambda pts: pts[:4]), bytes),
        # equal rows: two seeds name one member
        (*single(cyclic_group(3), "xy", lambda pts: [p for p in pts if p[0] == p[1]]), bytes),
        (two, two_ctx, enumerate_points(two_ctx, two)[1::2], bytes),
        # 17 * 17 > 256: the binary op is past the byte bound
        (*single(cyclic_group(17), "x", lambda pts: pts), tuple),
    ]


CAPS = (1, 2, 5, 17, 60, 250, 1000)


def _cap_outcome(factors, rows, names, cap):
    """The members of a generation under cap as tuple rows, or its CapExceeded."""
    try:
        out = generate(factors, rows, names, cap, stage="cross")
    except CapExceeded as e:
        return e
    return [list(ms) for ms in out.members]


@pytest.mark.parametrize("g, ctx, pts, column", _cross_cases(), ids=lambda v: getattr(v, "name", None))
def test_byte_and_tuple_kernels_give_the_same_generation(g, ctx, pts, column):
    """G^N with one algebra object keeps bytes columns where the byte
    bound allows; an equal copy among the factors forces tuple rows. Both
    give the same members, witnesses, cells, origin, seeds and cap errors,
    and raise iff the whole run has more members or more table cells than
    the cap (o_generation_counts)."""
    copy = FiniteAlgebra(g.sig, g.sizes, g.tables, name=g.name)
    rows = [(s, tuple(p[i] for p in pts)) for i, (_, s) in enumerate(ctx.vars)]
    power, mixed = [g] * len(pts), [g] + [copy] * (len(pts) - 1)
    engines = {bytes: algebras._ByteCells, tuple: algebras._TupleCells}
    assert type(algebras._cells(power, [[]])) is engines[column]
    assert type(algebras._cells(mixed, [[]])) is algebras._TupleCells
    a, b = generate(power, rows, ctx.names), generate(mixed, rows, ctx.names)
    assert a.members == b.members
    assert {s: sorted(ms) for s, ms in enumerate(a.members)} == oracles.o_row_subalgebra(g, ctx, pts)
    assert [len(ws) for ws in a.witnesses] == [len(ws) for ws in b.witnesses]
    assert all(u is v for wa, wb in zip(a.witnesses, b.witnesses) for u, v in zip(wa, wb))
    assert (a.cells, a.origin, a.seeds, a.gen_vars) == (b.cells, b.origin, b.seeds, b.gen_vars)
    assert a.index == b.index and a.contains(0, a.members[0][0])
    members, cells = oracles.o_generation_counts(g, ctx, pts)
    for cap in CAPS:
        got = _cap_outcome(power, rows, ctx.names, cap)
        assert str(got) == str(_cap_outcome(mixed, rows, ctx.names, cap)), cap
        over = members > cap or cells > cap
        assert isinstance(got, CapExceeded) == over, cap
        if not over:
            assert got == [list(ms) for ms in a.members]


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n),
            st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), min_size=1, max_size=3),
        )
    ),
    st.integers(1, 2),
    st.integers(1, 400),
)
def test_random_generations_raise_exactly_past_the_cap(algebra, nvars, cap):
    """The same verdict over random 2-4 element algebras with one unary and
    one binary op, on 1-3 points of one or two variables."""
    n, f, m, pts = algebra
    sig = Signature(("s",), [("f", ("s",), "s"), ("m", ("s", "s"), "s")])
    tables = {"f": {(i,): f[i] for i in range(n)}, "m": {(i, j): m[i * n + j] for i in range(n) for j in range(n)}}
    g = FiniteAlgebra(sig, (n,), tables)
    ctx = VarContext(sig, [(name, "s") for name in "xy"[:nvars]])
    pts = [tuple(p[:nvars]) for p in pts]
    members, cells = oracles.o_generation_counts(g, ctx, pts)
    rows = [(0, tuple(p[i] for p in pts)) for i in range(nvars)]
    got = _cap_outcome([g] * len(pts), rows, ctx.names, cap)
    assert isinstance(got, CapExceeded) == (members > cap or cells > cap)


def test_a_watched_generation_is_bounded_by_what_it_computed(monkeypatch):
    """A watch may stop a run before its members span their cells, so a
    watched run raises iff the members it added or the cells it computed
    before the stop pass the cap, even where its members already span more
    cells than the cap; separating_pair, a watched run, finds the same pair
    at every cap its members and cells fit, and some scans raise on their
    cells while their members fit."""
    computed = [0]
    for cls in (algebras._ByteCells, algebras._TupleCells):
        for name, size in (("run", lambda op, prefix, span: len(span)), ("constant", lambda op: 1)):

            def counting(self, *args, real=getattr(cls, name), size=size):
                computed[0] += size(*args)
                return real(self, *args)

            monkeypatch.setattr(cls, name, counting)
    spanned_past_the_cap = 0
    for g, ctx, pts, _ in _cross_cases():
        rows = [(s, tuple(p[i] for p in pts)) for i, (_, s) in enumerate(ctx.vars)]
        members, _ = oracles.o_generation_counts(g, ctx, pts)
        added = [0] * len(g.sig.sorts)

        def stop_halfway(s, key):
            if sum(added) == members // 2:
                return True
            added[s] += 1
            return False

        computed[0] = 0
        # the stopping member is recorded, uncharged
        assert generate([g] * len(pts), rows, ctx.names, watch=stop_halfway).size() == sum(added) + 1
        bound = max(sum(added), computed[0])
        spans = sum(math.prod(added[a] for a in op.args) for op in g.sig.ops)
        for cap in CAPS:
            added[:] = [0] * len(added)
            try:
                stopped = generate([g] * len(pts), rows, ctx.names, cap, watch=stop_halfway)
            except CapExceeded:
                assert cap < bound, (g.name, cap)
            else:
                assert stopped.size() == sum(added) + 1 and cap >= bound, (g.name, cap)
                spanned_past_the_cap += spans > cap
    assert spanned_past_the_cap > 0

    g = symmetric_group_3()
    ctx = VarContext(g.sig, [("x", "g"), ("y", "g")])
    real = geometry.generate
    members_past_the_cap = tables_past_the_cap = 0
    # the last scan, of one kernel against itself, finds no pair
    for p, q in [((0, 1), (1, 0)), ((3, 4), (1, 2)), ((1, 3), (2, 5)), ((1, 3), (1, 3))]:
        added = []

        def scan(cap=None, p=p, q=q):
            return separating_pair(kernel_of_point(p, g, ctx), kernel_of_point(q, g, ctx), cap)

        def counting(*args, watch, **kw):
            return real(*args, watch=lambda *a: watch(*a) or added.append(1), **kw)

        computed[0] = 0
        with monkeypatch.context() as m:
            m.setattr(geometry, "generate", counting)
            pair = scan()
        assert (pair is None) == (p == q)
        bound = max(len(added), computed[0])
        for cap in CAPS:
            if cap >= bound:
                assert scan(cap) == pair
            else:
                match = (
                    rf"kernel separation scan members: {cap + 1} exceeds"
                    if cap < len(added)
                    else r"kernel separation scan tables: \d+ exceeds"
                )
                with pytest.raises(CapExceeded, match=match):
                    scan(cap)
                members_past_the_cap += cap < len(added)
                tables_past_the_cap += cap >= len(added)
    assert members_past_the_cap > 0 and tables_past_the_cap > 0


def _hom_families():
    two = _two_sorted()[0]
    maj_sig = Signature(("s",), [("maj", ("s", "s", "s"), "s")])
    maj = FiniteAlgebra(maj_sig, (2,), {"maj": {a: int(sum(a) >= 2) for a in itertools.product(range(2), repeat=3)}})
    groups = [cyclic_group(n) for n in range(2, 7)] + [klein_four(), symmetric_group_3()]
    rings = [mod_ring(n) for n in (2, 3, 4)]
    semilattices = [chain_semilattice(2), chain_semilattice(3)]
    return [
        *itertools.product(groups, groups),
        *itertools.product(rings, rings),
        *itertools.product(semilattices, semilattices),
        (two, two),
        (two, quotient(two, [[0, 0, 0], [0, 0]])),
        # five generators into Z6: 7776 candidates, more than one chunk
        (product([cyclic_group(2)] * 5), cyclic_group(6)),
        # past the byte bound: tuple rows either way
        (cyclic_group(17), cyclic_group(17)),
        (cyclic_group(4), cyclic_group(17)),
        (maj, maj),
    ]


def test_enumerate_homs_batch_matches_one_at_a_time(monkeypatch):
    """enumerate_homs gives the same sorted list over byte columns as over
    tuple rows (byte_tables patched to None), and both equal o_homs wherever
    it filters at most 8000 maps. On each family's greedy generators, up to
    40 sampled candidates get the same flags and image columns over both
    routes and from o_extend."""
    families, rng = _hom_families(), random.Random(5)
    samples = []
    for a, b in families:
        sub = a.generation()
        candidates = list(itertools.product(*[range(b.sizes[s]) for s, _ in sub.seeds]))
        points = rng.sample(candidates, min(40, len(candidates)))
        samples.append((sub, b, points, sub.extend_all(points, b)))
    batch = [enumerate_homs(a, b) for a, b in families]
    checked = 0
    for (a, b), got in zip(families, batch):
        if math.prod(b.sizes[s] ** n for s, n in enumerate(a.sizes)) <= 8000:
            assert got == sorted(oracles.o_homs(a, b)), (a, b)
            checked += 1
    assert checked == 59  # all but the nine largest
    monkeypatch.setattr(FiniteAlgebra, "byte_tables", lambda self: None)
    assert [enumerate_homs(a, b) for a, b in families] == batch
    assert len(batch[-4]) == 32  # each generator of Z2^5 goes to 0 or 3 in Z6
    for sub, b, points, (flags, cols) in samples:
        tuple_flags, tuple_cols = sub.extend_all(points, b)
        want = [oracles.o_extend(sub, p, b) for p in points]
        assert list(flags) == list(tuple_flags) == [int(w is not None) for w in want]
        assert [list(map(list, cs)) for cs in cols] == [list(map(list, cs)) for cs in tuple_cols]
        for i, w in enumerate(want):
            assert w is None or [[col[i] for col in cs] for cs in cols] == w
    assert sum(1 in flags for *_, (flags, _) in samples) > len(samples) // 2


def test_generated_tables_are_built_on_first_read(monkeypatch, z4):
    """A generated algebra's tables view equals its cells read one cell at a
    time, is built once and only when read, and is read-only, with the same
    digest as an algebra built from that view; A'' on a byte-bound input
    never builds it."""
    gctx = GeoContext(z4, VarContext(GROUP_SIG, [("x", "g"), ("y", "g")]))
    a = PointSet.of_points(gctx, [(0, 1), (1, 3), (2, 2)])
    calls = []
    real = FiniteAlgebra.rows
    monkeypatch.setattr(FiniteAlgebra, "rows", lambda self, op: calls.append(op.name) or real(self, op))
    assert len(closure_variety(a)) == 16 and calls == []
    ca = coordinate_algebra(a)
    alg, cells = ca.algebra, ca.generation.cells
    assert calls == []
    want = {
        op.name: {
            args: functools.reduce(getitem, args, cells[op.name])
            for args in itertools.product(range(alg.sizes[0]), repeat=len(op.args))
        }
        for op in alg.sig.ops
    }
    assert alg.tables == want and alg.tables is alg.tables and calls == [op.name for op in alg.sig.ops]
    assert [list(t) for t in alg.tables.values()] == [sorted(t) for t in want.values()]
    with pytest.raises(TypeError):
        alg.tables["mul"][(0, 0)] = 1
    with pytest.raises(TypeError):
        alg.tables["mul"] = {}
    with pytest.raises(AttributeError):
        alg.tables = want
    assert alg.digest() == FiniteAlgebra(alg.sig, alg.sizes, alg.tables).digest() == "bd59e9f2f575"
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        alg.nope
    assert "__getattr__" not in vars(FiniteAlgebra)  # it would slow every read of every algebra


def stock_algebras() -> list[FiniteAlgebra]:
    return [
        *map(cyclic_group, (2, 3, 4, 5, 6)),
        klein_four(),
        symmetric_group_3(),
        chain_semilattice(2),
        chain_semilattice(3),
        vee_semilattice(),
        *map(mod_ring, (2, 3, 5)),
    ]


# check --suite galois seeds its rng from a digest, and eval_formula,
# morphism_check, variety_iso and FinitePartitionCongruence compare digests
STOCK_DIGESTS = {
    "Z2": "70437368ce69",
    "Z3": "b967e7338450",
    "Z4": "8cb1406ac406",
    "Z5": "4a33c18cfa6f",
    "Z6": "24ca57216b94",
    "V4": "a9ba76445ab8",
    "S3": "b7f611151517",
    "C2": "b44d9e990195",
    "C3": "cb1a052fe144",
    "Vee": "fec741ad4d2b",
    "R2": "8b0471762d7a",
    "R3": "fa171020600b",
    "R5": "9a8b542fd487",
}


def test_digests_are_pinned():
    """Every stock algebra's digest, and a workspace algebra's whose rows are
    listed in reverse lexicographic order: the digest reads the rows in
    lexicographic order, so it equals the stock Z3's."""
    assert {g.name: g.digest() for g in stock_algebras()} == STOCK_DIGESTS
    ws = load_workspace(
        "(sort g)(op mul (g g) g)(op inv (g) g)(op e () g)"
        "(algebra Z3r (carrier g 3) (table e (0)) (table inv (2 1) (1 2) (0 0))"
        " (table mul (2 2 1) (2 1 0) (2 0 2) (1 2 0) (1 1 2) (1 0 1) (0 2 2) (0 1 1) (0 0 0)))"
    )
    assert ws.algebra("Z3r").digest() == "b967e7338450"


def test_tables_view_agrees_with_nested_rows(z2, z4, s3, gctx2):
    """For stock algebras and for algebras built by each constructor, the
    tables view lists every argument tuple once, in lexicographic order,
    with the value nested() gives it."""
    a3 = [0, 3, 4]  # the identity and the two 3-cycles
    algs = [
        *stock_algebras(),
        product([z2, s3]),
        quotient(z4, [[0, 1, 0, 1]]),
        extend_with_constants(z4, adjoin_constants(GROUP_SIG, z4)[0]),
        restrict_submodel(Model(s3, RelSignature(GROUP_SIG)), [a3]).model.algebra,
        subalgebra_generated(s3, [3]).as_algebra(),
        coordinate_algebra(PointSet.of_points(GeoContext(z4, gctx2), [(0, 1), (1, 3)])).algebra,
    ]
    assert [g.sizes for g in algs[-6:]] == [(12,), (2,), (4,), (3,), (3,), (16,)]
    for g in algs:
        assert list(g.tables) == [op.name for op in g.sig.ops]
        for op in g.sig.ops:
            table = g.tables[op.name]
            assert list(table) == list(itertools.product(*[range(g.sizes[s]) for s in op.args]))
            assert [functools.reduce(getitem, args, g.nested()[op.name]) for args in table] == list(table.values())


def every_stock_algebra() -> list[FiniteAlgebra]:
    """Z1-Z8, V4, S3, Vee, C1-C4, R1-R6 and the unit algebra of each stock
    signature."""
    return [
        *map(cyclic_group, range(1, 9)),
        klein_four(),
        symmetric_group_3(),
        vee_semilattice(),
        *map(chain_semilattice, range(1, 5)),
        *map(mod_ring, range(1, 7)),
        *(unit_algebra(sig) for sig in (GROUP_SIG, SEMILATTICE_SIG, RING_SIG)),
    ]


def test_stock_algebras_equal_their_checked_rebuild():
    """The stock builders lay out their rows unchecked. Each stock algebra
    passes the check of an outside table, and its rebuild from the tables
    view equals it in every layout; S3's mul composes permutations, its
    right factor applied first, and its inv inverts them."""
    algs = every_stock_algebra()
    assert len(algs) == 24
    for g in algs:
        h = FiniteAlgebra(g.sig, g.sizes, g.tables, name=g.name)
        assert (h.nested(), h.digest(), h.byte_tables()) == (g.nested(), g.digest(), g.byte_tables()), g.name
    s3, perms = symmetric_group_3(), sorted(itertools.permutations(range(3)))
    for (i, a), (j, b) in itertools.product(enumerate(perms), repeat=2):
        assert perms[s3.apply("mul", (i, j))] == tuple(a[b[x]] for x in range(3))
    for i, a in enumerate(perms):
        assert perms[s3.apply("mul", (i, s3.apply("inv", (i,))))] == perms[s3.nested()["e"]] == (0, 1, 2)
    for build, n, message in (
        (cyclic_group, 0, "order must be positive"),
        (mod_ring, 0, "order must be positive"),
        (mod_ring, -1, "order must be positive"),
        (chain_semilattice, 0, "carriers must be nonempty"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(n)


def _z2_tables(**changes) -> dict:
    """Z2's tables keyed by argument tuples, each op's entries updated by
    changes[op], an op mapped to None dropped."""
    tables = {name: dict(table) for name, table in cyclic_group(2).tables.items()}
    for name, change in changes.items():
        if change is None:
            del tables[name]
        else:
            tables[name].update(change)
    return tables


@pytest.mark.parametrize(
    "sizes, tables, message",
    [
        ((2, 2), _z2_tables(), "one carrier size per sort required"),
        ((2,), _z2_tables(inv=None), "missing table for op 'inv'"),
        ((2,), {**_z2_tables(), "mul": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 0}}, "table for 'mul' missing entry (1, 1)"),
        ((2,), _z2_tables(mul={(1, 1): 2}), "table for 'mul' at (1, 1): result out of range"),
    ],
)
def test_finite_algebra_checks_outside_tables(sizes, tables, message):
    """A table from outside the package is checked once, as it enters: the
    carrier count, then each op's table in declaration order, then its
    entries in lexicographic order."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FiniteAlgebra(GROUP_SIG, sizes, tables, name="A")
