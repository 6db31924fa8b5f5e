import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from uag.algebras import (
    GROUP_SIG,
    FiniteAlgebra,
    GeneratedSubalgebra,
    cyclic_group,
    enumerate_homs,
    enumerate_points,
    eval_columns,
    product,
    quotient,
    subalgebra_generated,
)
from uag.congruences import (
    FinitePartitionCongruence,
    KernelCongruence,
    LazyMeetKernel,
    PairSet,
    ground_closure,
    h_ker,
    kernel_leq,
    kernel_of_point,
    meet_kernels,
    normalize_pair,
    unit_kernel,
    unit_partition,
)
from uag.config import CapExceeded
from uag.geometry import candidate_pairs, coordinate_algebra, random_term
from uag.spaces import GeoContext, PointSet
from uag.terms import Signature, VarContext, app, render, sort_of, var


def test_normalize_pair_orders_by_key():
    a, b = app("mul", var("x"), var("x")), var("x")
    assert normalize_pair((a, b)) == (b, a)
    assert normalize_pair((b, a)) == (b, a)


def test_pairset_dedup_and_order():
    x, y = var("x"), var("y")
    t = app("mul", x, y)
    ps = PairSet([(t, x), (x, t), (y, x)])
    assert len(ps) == 2
    assert ps.pairs[0] == (x, y)
    assert (x, t) in ps and (t, x) in ps


def test_ground_closure_basic_chain():
    a, b, c = app("e"), app("inv", app("e")), app("mul", app("e"), app("e"))
    gc = ground_closure([(a, b), (b, c)])
    assert gc.contains((a, c))


def test_ground_closure_congruence_step():
    # e = inv(e) forces mul(e, e) = mul(inv(e), e)
    e, ie = app("e"), app("inv", app("e"))
    t1, t2 = app("mul", e, e), app("mul", ie, e)
    gc = ground_closure([(e, ie)], extra_terms=[t1, t2])
    assert gc.contains((t1, t2))
    assert not gc.contains((e, t1))


def _ground_terms(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return app("e")
    k = rng.random()
    if k < 0.45:
        return app("mul", _ground_terms(rng, depth - 1), _ground_terms(rng, depth - 1))
    if k < 0.8:
        return app("inv", _ground_terms(rng, depth - 1))
    return app("e")


@pytest.mark.parametrize("seed", range(12))
def test_ground_closure_matches_relabel_oracle(seed):
    rng = random.Random(seed)
    terms = [_ground_terms(rng, 3) for _ in range(8)]
    pairs = []
    for _ in range(rng.randint(1, 5)):
        pairs.append((rng.choice(terms), rng.choice(terms)))
    gc = ground_closure(pairs, extra_terms=terms)
    for a in terms:
        for b in terms:
            assert gc.contains((a, b)) == oracles.o_ground_same(pairs, a, b, terms)


def _agrees_with_oracle(gc, pairs):
    """gc answers every pair of its registered terms as the relabeling
    closure of pairs over those terms does."""
    terms = [t for cls in gc.classes() for t in cls]
    _, label, _ = oracles.o_ground_closure_classes(pairs, terms)
    return all(gc.contains((a, b)) == (label[id(a)] == label[id(b)]) for a in terms for b in terms)


@given(st.integers(0, 2**32 - 1))
def test_cloned_closures_stay_independent(seed):
    """Two copies of one root closure, each given its own merges and terms,
    answer as fresh closures of their pairs do, and neither changes the
    root's classes or its sibling's; merges into the root afterwards leave
    both copies as they were and closing correctly."""
    rng = random.Random(seed)
    terms = [_ground_terms(rng, 3) for _ in range(8)]
    root_pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(rng.randint(0, 2))]
    root = ground_closure(root_pairs, extra_terms=terms)
    root_classes = root.classes()
    a, b = root.copy(), root.copy()
    a_pairs = root_pairs + [(rng.choice(terms), rng.choice(terms)) for _ in range(rng.randint(1, 3))]
    b_pairs = root_pairs + [(rng.choice(terms), _ground_terms(rng, 3)) for _ in range(rng.randint(1, 3))]
    for w, w2 in a_pairs[len(root_pairs):]:
        a.merge(w, w2)
    assert root.classes() == root_classes and b.classes() == root_classes
    for w, w2 in b_pairs[len(root_pairs):]:
        b.merge(w, w2)
    a_classes = a.classes()
    assert _agrees_with_oracle(a, a_pairs) and _agrees_with_oracle(b, b_pairs)
    assert root.classes() == root_classes and a.classes() == a_classes
    assert _agrees_with_oracle(root, root_pairs)
    b_classes = b.classes()
    late_pairs = [(rng.choice(terms), _ground_terms(rng, 3)) for _ in range(rng.randint(1, 3))]
    for w, w2 in late_pairs:
        root.merge(w, w2)
    assert a.classes() == a_classes and b.classes() == b_classes
    assert _agrees_with_oracle(root, root_pairs + late_pairs)
    more_pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(rng.randint(1, 3))]
    for w, w2 in more_pairs:
        a.merge(w, w2)
    assert _agrees_with_oracle(a, a_pairs + more_pairs)


def test_kernel_contains(z4, gctx2):
    k = kernel_of_point((1, 2), z4, gctx2)
    x, y = var("x"), var("y")
    assert k.contains((app("mul", x, x), y))
    assert not k.contains((x, y))
    assert k.rows() == [(1, 1), (2, 2)] or len(k.rows()) == 2


TWO_SIG = Signature(("a", "b"), [("f", ("b",), "a"), ("m", ("a", "a"), "a"), ("g", ("a", "b"), "b"), ("c", (), "a")])
TWO = FiniteAlgebra(
    TWO_SIG,
    (3, 2),
    {
        "f": {(0,): 1, (1,): 2},
        "m": {(i, j): (i + 2 * j) % 3 for i in range(3) for j in range(3)},
        "g": {(i, j): (i * j + i) % 2 for i in range(3) for j in range(2)},
        "c": {(): 2},
    },
)
TWO_CTX = VarContext(TWO_SIG, [("x", "a"), ("y", "b"), ("z", "a")])


@given(st.integers(0, 2**32 - 1))
def test_typed_evaluation_and_kernel_members(seed):
    rng = random.Random(seed)
    pairs = []
    for _ in range(8):
        srt = rng.randrange(2)
        pairs.append(tuple(random_term(rng, TWO_SIG, TWO_CTX, rng.randint(0, 3), srt) for _ in range(2)))
    terms = [t for pair in pairs for t in pair]
    points = enumerate_points(TWO_CTX, TWO)
    for t, (s, col) in zip(terms, eval_columns(terms, points, TWO, TWO_CTX)):
        assert s == sort_of(t, TWO_SIG, TWO_CTX)
        assert col == [oracles.o_eval(t, oracles.o_env(TWO_CTX, p), TWO.tables) for p in points]
    kernels = [kernel_of_point(p, TWO, TWO_CTX) for p in rng.sample(points, 3)]
    for k in kernels:
        env = oracles.o_env(TWO_CTX, k.assignment)
        got = k.members(pairs)
        assert got == [k.contains(q) for q in pairs]
        assert got == [oracles.o_eval(u, env, TWO.tables) == oracles.o_eval(w, env, TWO.tables) for u, w in pairs]
    assert LazyMeetKernel(kernels).members(pairs) == [all(k.contains(q) for k in kernels) for q in pairs]


def test_kernel_validates_range(z2, gctx2):
    with pytest.raises(ValueError):
        KernelCongruence(z2, gctx2, (0, 5))


def test_unit_kernel_identifies_everything(gctx2):
    k = unit_kernel(gctx2, GROUP_SIG)
    assert k.contains((var("x"), app("e")))
    assert k.contains((var("x"), var("y")))


def test_meet_kernels_product_route(z2, gctx2):
    k1 = kernel_of_point((0, 0), z2, gctx2)
    k2 = kernel_of_point((1, 1), z2, gctx2)
    m = meet_kernels([k1, k2])
    x, y = var("x"), var("y")
    # x=y holds at both diagonal points, x=e only at the first
    assert k1.contains((x, y)) and k2.contains((x, y))
    assert m.contains((x, y))
    assert not m.contains((x, app("e")))
    assert m.contains((x, x))


def test_meet_kernels_lazy_beyond_cap(z4, gctx2):
    ks = [kernel_of_point(p, z4, gctx2) for p in [(0, 1), (1, 2), (2, 3), (3, 0)]]
    with pytest.raises(CapExceeded, match="kernel meet image"):
        meet_kernels(ks, cap=8)
    pair = (app("mul", var("x"), var("x")), app("mul", var("y"), var("y")))
    assert LazyMeetKernel(ks).contains(pair) == all(k.contains(pair) for k in ks)


def test_meet_kernels_image_route(z4, gctx2):
    # the meet's target is the 16-element image, not the 256-element product
    pts = [(1, 2), (3, 1), (2, 2), (0, 3)]
    meet = meet_kernels([kernel_of_point(p, z4, gctx2) for p in pts])
    assert isinstance(meet, KernelCongruence)
    assert meet.target.sizes == (16,)
    coord = coordinate_algebra(PointSet.of_points(GeoContext(z4, gctx2), pts)).kernel()
    for pair in candidate_pairs(GROUP_SIG, gctx2, depth=3, seed=5, count=40):
        assert meet.contains(pair) == coord.contains(pair)


def test_meet_empty_needs_context(gctx2):
    k = meet_kernels([], sig=GROUP_SIG, ctx=gctx2)
    assert k.contains((var("x"), var("y")))


def test_kernel_leq(z4, z2, gctx2):
    fine = kernel_of_point((1, 2), z4, gctx2)
    coarse = kernel_of_point((1, 0), z2, gctx2)
    # mod-2 factors the Z4 kernel: Ker fine <= Ker coarse
    assert kernel_leq(fine, coarse)
    assert not kernel_leq(coarse, fine)
    assert kernel_leq(fine, fine)


def test_partition_congruence_validates(z4):
    with pytest.raises(ValueError):
        FinitePartitionCongruence(z4, [[0, 0, 1, 1]])
    ok = FinitePartitionCongruence(z4, [[0, 1, 0, 1]])
    assert ok.same(0, 0, 2) and not ok.same(0, 0, 1)
    assert ok.block_counts() == (2,)


def test_partition_and_quotient_share_one_relabel(z4):
    labels = [["b", "a", "b", "a"]]
    p = FinitePartitionCongruence(z4, labels)
    assert p.block_ids == ((0, 1, 0, 1),)
    q = quotient(z4, labels)
    assert q.sizes == (2,)
    assert q.tables == quotient(z4, p).tables
    for short in ([[0, 1, 0]], [[0, 1, 0, 1, 0]]):
        with pytest.raises(ValueError, match="^partition for sort 0 has wrong length$"):
            FinitePartitionCongruence(z4, short)
        with pytest.raises(ValueError, match="^partition for sort 0 has wrong length$"):
            quotient(z4, short)


def test_partition_meet(z6):
    a = FinitePartitionCongruence(z6, [[0, 1, 0, 1, 0, 1]])
    b = FinitePartitionCongruence(z6, [[0, 1, 2, 0, 1, 2]])
    m = a.meet(b)
    assert m.block_counts() == (6,)
    assert m == unit_partition(z6).meet(m)


def test_h_ker_collapses_when_no_homs_exist(z3, z2):
    # the only hom Z3 -> Z2 is constant, so everything is identified
    hk = h_ker(z3, z2)
    assert hk.block_counts() == (1,)


def test_h_ker_square_law_small(z2, z3, z4, klein, chain2, chain3):
    for g in (z2, z3, z4, klein):
        for h in (z2, z3):
            left = h_ker(g, h)
            right = h_ker(g, product([h, h]))
            assert left == right
    assert h_ker(chain3, chain2) == h_ker(chain3, product([chain2, chain2]))


def test_h_ker_product_law(z2, z3, z4, klein):
    for g in (z2, z3, z4, klein):
        for h1 in (z2, z3):
            for h2 in (z2, z4):
                lhs = h_ker(g, product([h1, h2]))
                rhs = h_ker(g, h1).meet(h_ker(g, h2))
                assert lhs == rhs


def test_kernel_images_hold_elements_of_the_target(s3, gctx2):
    """A point kernel, a coordinate-algebra kernel and a meet of kernels each
    have an image whose members are elements of the kernel's target, each
    with a witness that evaluates to it at the kernel's assignment."""
    gctx = GeoContext(s3, gctx2)
    kernels = [
        kernel_of_point((1, 2), s3, gctx2),
        coordinate_algebra(PointSet.of_points(gctx, [(0, 1), (1, 3), (2, 2)])).kernel(),
        meet_kernels([kernel_of_point(p, s3, gctx2) for p in [(1, 2), (3, 3), (4, 5)]]),
    ]
    for k in kernels:
        sub = k.image()
        assert sub.size() > 1
        for s, members in enumerate(sub.members):
            for e in members:
                assert e in range(k.target.sizes[s])
                [(_, [value])] = eval_columns([sub.witness_of(s, e)], [k.assignment], k.target, k.ctx)
                assert value == e


def _random_algebra(rng, sig, name, largest=3):
    sizes = [rng.randint(1, largest) for _ in sig.sorts]
    tables = {}
    for op in sig.ops:
        cells = itertools.product(*[range(sizes[s]) for s in op.args])
        tables[op.name] = {args: rng.randrange(sizes[op.result]) for args in cells}
    return FiniteAlgebra(sig, sizes, tables, name=name)


def _random_signature(rng, arities):
    sorts = ("a", "b")[: rng.randint(1, 2)]
    return Signature(sorts, [(f"o{k}", tuple(rng.choices(sorts, k=k)), rng.choice(sorts)) for k in arities])


def _sorted_blocks(p):
    out = []
    for ids in p.block_ids:
        groups: dict[int, list[int]] = {}
        for e, b in enumerate(ids):
            groups.setdefault(b, []).append(e)
        out.append(sorted(groups.values()))
    return out


@given(st.integers(0, 2**32 - 1))
def test_hom_search_matches_the_oracles_on_random_small_algebras(seed):
    """Over 1-2 sorts, one unary and one binary op, carriers of 1-3 elements:
    h_ker gives the partition of o_h_ker_blocks and enumerate_homs returns
    sorted(o_homs), from an algebra and from a random generation of it."""
    rng = random.Random(seed)
    sig = _random_signature(rng, (1, 2))
    g, h = _random_algebra(rng, sig, "G"), _random_algebra(rng, sig, "H")
    picks = rng.choices(range(len(sig.sorts)), k=rng.randint(1, 3))
    sub = subalgebra_generated(g, [(s, rng.randrange(g.sizes[s])) for s in picks])
    for a in (g, sub):
        if isinstance(a, GeneratedSubalgebra) and 0 in map(len, a.members):
            for search in (enumerate_homs, h_ker):
                with pytest.raises(ValueError, match="has no term over the generators"):
                    search(a, h)
            continue
        alg = a.as_algebra() if isinstance(a, GeneratedSubalgebra) else a
        assert enumerate_homs(a, h) == sorted(oracles.o_homs(alg, h))
        assert _sorted_blocks(h_ker(a, h)) == oracles.o_h_ker_blocks(alg, h)


def _generated_congruence(g, pairs):
    """Block labels of the congruence generated by pairs (sort, x, y), by a
    relabeling fixpoint over every row and argument position."""
    label = [list(range(n)) for n in g.sizes]

    def merge(s, x, y):
        old, new = label[s][y], label[s][x]
        label[s] = [new if b == old else b for b in label[s]]
        return old != new

    for s, x, y in pairs:
        merge(s, x, y)
    changed = True
    while changed:
        changed = False
        for op in g.sig.ops:
            for args, val in g.tables[op.name].items():
                for i, s in enumerate(op.args):
                    for other in range(g.sizes[s]):
                        if label[s][other] == label[s][args[i]]:
                            moved = g.apply(op.name, (*args[:i], other, *args[i + 1 :]))
                            changed |= merge(op.result, val, moved)
    return label


def _same_quotient_or_error(g, labels):
    """quotient and FinitePartitionCongruence take the row route as
    o_quotient takes the dict route: same tables, digest and name, or the
    same ValueError message."""
    try:
        want = oracles.o_quotient(g, labels)
    except ValueError as e:
        for build in (quotient, FinitePartitionCongruence):
            with pytest.raises(ValueError) as got:
                build(g, labels)
            assert str(got.value) == str(e)
        return False
    got = quotient(g, labels)
    assert (got.sizes, got.tables, got.digest(), got.name) == (want.sizes, want.tables, want.digest(), want.name)
    assert got.nested() == want.nested()
    FinitePartitionCongruence(g, labels)
    return True


@given(st.integers(0, 2**32 - 1))
def test_quotient_rows_match_the_dict_route(seed):
    """On random algebras of 1-2 sorts with ops of arity 0-3, and on a fixed
    two-sorted one: generated congruences, h_ker blocks and random labels."""
    rng = random.Random(seed)
    sig = _random_signature(rng, (0, 1, 2, 3))
    g, h = _random_algebra(rng, sig, "G", largest=4), _random_algebra(rng, sig, "H")
    for a in (g, TWO):
        pairs = []
        for _ in range(rng.randint(0, 2)):
            s = rng.randrange(len(a.sizes))
            pairs.append((s, rng.randrange(a.sizes[s]), rng.randrange(a.sizes[s])))
        assert _same_quotient_or_error(a, _generated_congruence(a, pairs))
        assert _same_quotient_or_error(a, h_ker(a, h if a is g else TWO).block_ids)
        _same_quotient_or_error(a, [[rng.randrange(3) for _ in range(n)] for n in a.sizes])


def test_quotient_names_the_first_split_class_as_the_dict_route_does():
    """Z4 by {0, 1} {2, 3}: mul first splits class (0, 0), at row (0, 1).
    t(a, b, c) = a·b + c mod 3 by {0, 1} {2} first splits class (0, 0, 0) at
    row (1, 1, 1), off the class's first row (0, 0, 0); by {0, 2} {1} it
    first splits (1, 1, 0) at row (1, 1, 2), within the first row's run."""
    z4 = cyclic_group(4)
    with pytest.raises(ValueError, match=r"^partition is not a congruence: op 'mul' splits class \(0, 0\)$"):
        quotient(z4, [[0, 0, 1, 1]])
    assert not _same_quotient_or_error(z4, [[0, 0, 1, 1]])
    sig = Signature(("a",), [("t", ("a", "a", "a"), "a")])
    rows = {(a, b, c): (a * b + c) % 3 for a, b, c in itertools.product(range(3), repeat=3)}
    g = FiniteAlgebra(sig, (3,), {"t": rows})
    for labels, key in (([[0, 0, 1]], r"\(0, 0, 0\)"), ([[0, 1, 0]], r"\(1, 1, 0\)")):
        with pytest.raises(ValueError, match=rf"^partition is not a congruence: op 't' splits class {key}$"):
            quotient(g, labels)
        assert not _same_quotient_or_error(g, labels)
