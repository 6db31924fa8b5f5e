import hashlib
import itertools
import random

import pytest

import oracles
from uag import algebras, geometry, reports, terms
from uag.algebras import (
    GROUP_SIG,
    RING_SIG,
    FiniteAlgebra,
    GeneratedSubalgebra,
    chain_semilattice,
    cyclic_group,
    generate,
    klein_four,
    mod_ring,
    product,
    subalgebra_generated,
    symmetric_group_3,
    vee_semilattice,
)
from uag.config import DEFAULT_CAP, CapExceeded
from uag.congruences import PairSet, h_ker, kernel_leq, kernel_of_point, unit_kernel
from uag.geometry import (
    Equivalent,
    NotEquivalent,
    act_endo_variety,
    all_closed_point_sets,
    candidate_pairs,
    closure_pairs,
    closure_variety,
    congruence_of,
    coordinate_algebra,
    faithful_solvable,
    geometric_equiv,
    morphism_check,
    nullstellensatz_check,
    point_closure,
    pointwise_closed,
    presentation_pairs,
    separating_pair,
    variety_iso,
    variety_of,
    variety_of_kernel,
    verbal_variety,
)
from uag.sexpr import load_workspace
from uag.spaces import GeoContext, PointSet
from uag.terms import Signature, Substitution, VarContext, app, render, var

X, Y = var("x"), var("y")
COMM = (app("mul", X, Y), app("mul", Y, X))
SQ_E = (app("mul", X, X), app("e"))


def test_variety_matches_oracle(z4, s3, gctx2):
    for g in (z4, s3):
        gctx = GeoContext(g, gctx2)
        for pairs in ([SQ_E], [COMM], [SQ_E, COMM], []):
            got = variety_of(gctx, PairSet(pairs))
            assert got.points() == oracles.o_variety(g, gctx2, pairs)


def test_variety_of_no_pairs_is_full_space(s3, gctx2):
    gctx = GeoContext(s3, gctx2)
    assert variety_of(gctx, []) == gctx.full()


def test_point_set_rejects_out_of_range_index(z2, gctx2):
    gctx = GeoContext(z2, gctx2)
    for bad in ([-1], [0, 4]):
        with pytest.raises(ValueError):
            PointSet(gctx, bad)
    assert len(PointSet(gctx, [0, 3])) == 2


def test_variety_rejects_sort_mismatch(z4):
    ctx = VarContext(GROUP_SIG, [("x", "g")])
    gctx = GeoContext(z4, ctx)
    with pytest.raises(ValueError):
        variety_of(gctx, PairSet([(var("q"), app("e"))]))


def test_galois_laws_small(z4, gctx2):
    gctx = GeoContext(z4, gctx2)
    t1 = PairSet([SQ_E])
    t2 = PairSet([SQ_E, COMM])
    a1, a2 = variety_of(gctx, t1), variety_of(gctx, t2)
    assert a2.issubset(a1)  # antitone
    k1 = congruence_of(a1)
    assert all(k1.contains(p) for p in t1)  # T inside T''
    assert a1.issubset(closure_variety(a1))  # A inside A''
    # closure is idempotent
    assert closure_variety(closure_variety(a1)) == closure_variety(a1)


def test_empty_set_closure_laws(z4, r5, gctx2, rctx2):
    # groups have the one-element subalgebra {e}: the empty set closes to
    # the constant-e point
    gctx = GeoContext(z4, gctx2)
    closed = closure_variety(gctx.empty())
    assert closed.points() == [(0, 0)]
    # rings have no one-element subalgebra (zero and one differ), so the
    # empty set is already closed
    rctx = GeoContext(r5, rctx2)
    assert closure_variety(rctx.empty()) == rctx.empty()


def test_closure_points_match_oracle(z2, z4, chain3, gctx2, sctx2):
    rng = random.Random(5)
    cases = [(z2, gctx2), (z4, gctx2), (chain3, sctx2)]
    for g, ctx in cases:
        gctx = GeoContext(g, ctx)
        n = len(gctx.points)
        for _ in range(8):
            a = PointSet(gctx, rng.sample(range(n), rng.randint(0, min(4, n))))
            got = closure_variety(a)
            want = oracles.o_closure_points(g, ctx, a.points())
            assert got.points() == want


def test_closure_membership_matches_definitional_oracle(z4, gctx2):
    gctx = GeoContext(z4, gctx2)
    pool = candidate_pairs(GROUP_SIG, gctx2, depth=2, seed=3, count=18)
    rng = random.Random(11)
    for _ in range(10):
        t = rng.sample(pool, rng.randint(0, 3))
        k = congruence_of(variety_of(gctx, PairSet(t)))
        for q in rng.sample(pool, 6):
            assert k.contains(q) == oracles.o_closure_member(z4, gctx2, t, q)


def test_coordinate_algebra_of_diagonal(z2, gctx2):
    gctx = GeoContext(z2, gctx2)
    diag = variety_of(gctx, PairSet([(X, Y)]))
    ca = coordinate_algebra(diag)
    assert ca.algebra.sizes == (2,)
    k = ca.kernel()
    assert k.contains((X, Y))
    assert not k.contains((X, app("e")))


def test_presentation_recovers_variety(z2, z4, gctx2):
    rng = random.Random(7)
    for g in (z2, z4):
        gctx = GeoContext(g, gctx2)
        pool = candidate_pairs(GROUP_SIG, gctx2, depth=2, seed=9, count=15)
        closed = [closure_variety(variety_of(gctx, PairSet(rng.sample(pool, rng.randint(0, 3))))) for _ in range(6)]
        for a in (gctx.empty(), *closed):
            k = congruence_of(a)
            eqs = presentation_pairs(k)
            assert variety_of(gctx, eqs) == closure_variety(a)
            assert all(k.members(eqs))
        # over a group the empty set closes to the identity point
        assert variety_of(gctx, presentation_pairs(congruence_of(gctx.empty()))).points() == [(0, 0)]


def test_point_kernel_and_coordinate_kernel_present_alike(z4, s3, gctx2):
    rng = random.Random(3)
    for g in (z4, s3):
        gctx = GeoContext(g, gctx2)
        for p in rng.sample(gctx.points, 5):
            one = PointSet.of_points(gctx, [p])
            assert presentation_pairs(kernel_of_point(p, g, gctx2)) == presentation_pairs(
                coordinate_algebra(one).kernel()
            )


TWO_SORTED = """
(sort a) (sort b)
(op c0 () a) (op c1 () a) (op f (a) b) (op g (b) a)
(algebra A (carrier a 2) (carrier b 2)
  (table c0 (0)) (table c1 (1)) (table f (0 0) (1 1)) (table g (0 0) (1 1)))
(algebra D (carrier a 2) (carrier b 2)
  (table c0 (0)) (table c1 (0)) (table f (0 0) (1 1)) (table g (0 0) (1 0)))
(context C (x a))
"""


def test_unit_presentation_with_a_variable_less_sort():
    # sort b has no variable in C, which the unit congruence must still present
    ws = load_workspace(TWO_SORTED)
    ctx = ws.context("C")
    eqs = presentation_pairs(unit_kernel(ctx, ws.sig()))
    for name, want in (("A", []), ("D", [(0,)])):
        g = ws.algebra(name)
        collapsed = [
            p for p in oracles.o_points(g, ctx)
            if all(len(rows) <= 1 for rows in oracles.o_row_subalgebra(g, ctx, [p]).values())
        ]
        assert collapsed == want
        assert variety_of(GeoContext(g, ctx), eqs).points() == want


def test_all_closed_point_sets_is_exactly_the_closure_image(z2, z3, gctx2, gctx1):
    for g, ctx in [(z2, gctx2), (z3, gctx1)]:
        gctx = GeoContext(g, ctx)
        n = len(gctx.points)
        brute = set()
        for mask in range(1 << n):
            a = PointSet(gctx, [i for i in range(n) if mask >> i & 1])
            brute.add(closure_variety(a))
        got = list(all_closed_point_sets(gctx))
        assert set(got) == brute
        assert len(got) == len(brute)
        for a in got:
            assert closure_variety(a) == a


def _walk(monkeypatch, gctx, cap=None):
    """The sweep with every closure taken as A'', as when the term functions
    pass the cap: the first step computes the equalizers, so failing it
    there switches the whole walk."""

    def overflow(gctx, cap=None):
        raise CapExceeded("forced", 1, 0)

    sets = all_closed_point_sets(gctx, cap)
    with monkeypatch.context() as m:
        m.setattr(geometry, "_equalizers", overflow)
        first = next(sets)
    return itertools.chain([first], sets)


def _masks(sets):
    return [a.mask for a in sets]


def _context(g, n):
    return VarContext(g.sig, [(name, g.sig.sorts[0]) for name in "xyz"[:n]])


def test_equalizer_sweep_matches_the_walk(monkeypatch):
    """Same sets in the same lectic order as closing each front by A''."""
    algebras = [cyclic_group(n) for n in (2, 3, 4, 5)] + [klein_four(), symmetric_group_3()]
    algebras += [chain_semilattice(2), chain_semilattice(3), vee_semilattice(), mod_ring(2)]
    # the walk takes seconds or more on these
    slow = {("Z4", 3), ("Z5", 3), ("S3", 2), ("S3", 3), ("R2", 3)}
    for g in algebras:
        for n in (1, 2, 3):
            if (g.name, n) in slow:
                continue
            gctx = GeoContext(g, _context(g, n))
            assert _masks(all_closed_point_sets(gctx)) == _masks(_walk(monkeypatch, gctx)), (g.name, n)


def test_equalizer_sweep_frozen_digests():
    """Digests of the lectic mask sequences the A'' walk gives on inputs
    where it takes from seconds to minutes."""
    for g, n, count, digest in (
        (cyclic_group(4), 3, 129, "2cfb0cb59882"),
        (cyclic_group(6), 2, 30, "361c51d39864"),
        (mod_ring(2), 3, 256, "0ecab6d5ddee"),
        (symmetric_group_3(), 2, 90, "828454ad6203"),
    ):
        masks = _masks(all_closed_point_sets(GeoContext(g, _context(g, n))))
        assert len(masks) == count
        assert hashlib.sha256(repr(masks).encode()).hexdigest()[:12] == digest, g.name


def test_sweep_past_the_cap_keeps_the_walk(monkeypatch):
    """R3 over 2 variables: the term functions pass 2**16, so the sweep
    walks by A'' and raises the walk's CapExceeded after the same sets."""
    cap = 2**16
    gctx = GeoContext(mod_ring(3), _context(mod_ring(3), 2))
    prefixes, errors = [], []
    for sets in (all_closed_point_sets(gctx, cap), _walk(monkeypatch, gctx, cap)):
        yielded = []
        with pytest.raises(CapExceeded) as e:
            yielded.extend(sets)
        prefixes.append(_masks(yielded))
        errors.append(str(e.value))
    assert len(prefixes[0]) == 31
    assert prefixes[0] == prefixes[1]
    assert errors == ["coordinate algebra tables: 103971 exceeds cap 65536"] * 2
    # a consumer that stops early gets its sets without an error
    assert _masks(itertools.islice(all_closed_point_sets(gctx, cap), 10)) == prefixes[1][:10]
    # the term functions overflow at the same count, alone and as the
    # equalizers' generation, and so does the coordinate algebra of the full set
    rows = [(0, tuple(p[i] for p in gctx.points)) for i in range(2)]
    full = []
    for members in (
        lambda: generate([gctx.g] * 9, rows, ("x", "y"), cap, stage="coordinate algebra").members,
        lambda: geometry._equalizers(gctx, cap),
    ):
        with pytest.raises(CapExceeded) as e:
            members()
        full.append(str(e.value))
    with pytest.raises(CapExceeded) as e:
        coordinate_algebra(gctx.full(), cap)
    assert full == [str(e.value)] * 2 == ["coordinate algebra tables: 2428811 exceeds cap 65536"] * 2


def test_over_cap_generations_stop_before_computing_the_cap(monkeypatch):
    """S3 over 3 variables: the term functions are about 10**9 members,
    so the coordinate algebra of the full set and the equalizers raise
    once their members span more than the cap's worth of cells, having
    computed under a sixteenth of the cap's cells (30,800, where running
    up to the cap computes over 10**6), and the sweep still yields its
    first set."""
    computed = [0]
    real = algebras._ByteCells.run

    def counting(self, op, prefix, span):
        computed[0] += len(span)
        return real(self, op, prefix, span)

    monkeypatch.setattr(algebras._ByteCells, "run", counting)
    gctx = GeoContext(symmetric_group_3(), _context(symmetric_group_3(), 3))
    for run in (lambda: coordinate_algebra(gctx.full()), lambda: geometry._equalizers(gctx)):
        computed[0] = 0
        with pytest.raises(CapExceeded) as e:
            run()
        assert e.value.what == "coordinate algebra tables" and e.value.cap == DEFAULT_CAP
        assert 0 < computed[0] < DEFAULT_CAP // 16
    assert next(all_closed_point_sets(gctx)).points() == [(0, 0, 0)]


def test_equalizer_sweep_work_counts(monkeypatch, z4, gctx3):
    """One sweep generates the term functions once, builds no coordinate
    algebra, runs no hom check and interns no term."""
    calls = {"generate": 0, "coordinate_algebra": 0, "variety_of_kernel": 0}
    for name in calls:
        real = getattr(geometry, name)
        monkeypatch.setattr(
            geometry, name, lambda *args, real=real, name=name, **kw: calls.__setitem__(name, calls[name] + 1) or real(*args, **kw)
        )
    gctx = GeoContext(z4, gctx3)
    interned = len(terms._APPS)
    assert len(list(all_closed_point_sets(gctx))) == 129
    assert calls == {"generate": 1, "coordinate_algebra": 0, "variety_of_kernel": 0}
    assert len(terms._APPS) == interned


def test_equalizer_pairs_are_charged(monkeypatch):
    """With one unary op the pairs of term functions outnumber their cells:
    6 members and 6 cells fit cap 10, 15 pairs do not, so the sweep closes
    by A'' there, with the same sets."""
    ws = load_workspace(
        "(sort g) (op s (g) g) (context C (x g))\n"
        "(algebra M (carrier g 6) (table s (0 1) (1 2) (2 3) (3 4) (4 5) (5 5)))"
    )
    gctx = GeoContext(ws.algebra("M"), ws.context("C"))
    built = []
    real = geometry.coordinate_algebra
    monkeypatch.setattr(geometry, "coordinate_algebra", lambda a, cap=None: built.append(cap) or real(a, cap))
    # the closed sets are the up-sets {x >= k}
    want = [0b100000, 0b110000, 0b111000, 0b111100, 0b111110, 0b111111]
    assert _masks(all_closed_point_sets(gctx)) == want
    assert built == []
    assert _masks(all_closed_point_sets(gctx, cap=10)) == want
    assert built and set(built) == {10}


@pytest.mark.parametrize(
    "g, n", [(cyclic_group(4), 2), (symmetric_group_3(), 1), (cyclic_group(17), 1), (cyclic_group(130), 1)]
)
def test_equalizers_match_pointwise_comparison(g, n):
    """The packed guard trick gives the masks of comparing each pair of
    term functions point by point: one byte per point below 128, for bytes
    columns and for Z17's tuple rows, and the generic packing for Z130."""
    gctx = GeoContext(g, _context(g, n))
    rows = [(0, tuple(p[i] for p in gctx.points)) for i in range(n)]
    members = generate([g] * len(gctx.points), rows, gctx.ctx.names).members
    want = {
        sum(1 << i for i, (a, b) in enumerate(zip(u, v)) if a == b)
        for ms in members
        for u, v in itertools.combinations(ms, 2)
    }
    got = geometry._equalizers(gctx)
    assert len(got) == len(want) and set(got) == want


TERMLESS = """
(sort a) (sort b) (op c () a) (op h (b) a)
(algebra G (carrier a 2) (carrier b 2) (table c (0)) (table h (0 1) (1 0)))
(context C (x a))
"""


def test_equalizer_sweep_with_a_termless_sort():
    """A sort with no term over the context has no equalizers: the sweep
    answers, though no coordinate algebra exists there."""
    ws = load_workspace(TERMLESS)
    gctx = GeoContext(ws.algebra("G"), ws.context("C"))
    assert _masks(all_closed_point_sets(gctx)) == [0b01, 0b11]
    with pytest.raises(ValueError, match="^sort 'b' has no term over the generators$"):
        coordinate_algebra(gctx.full())


def test_presentation_with_a_termless_sort():
    """presentation_pairs reads the image's cells, so a sort with no term
    over the context, which as_algebra() cannot carry, does not stop it."""
    ws = load_workspace(TERMLESS)
    g, ctx = ws.algebra("G"), ws.context("C")
    gctx = GeoContext(g, ctx)
    assert presentation_pairs(kernel_of_point((0,), g, ctx)) == PairSet([(app("c"), var("x"))])
    assert presentation_pairs(kernel_of_point((1,), g, ctx)) == PairSet()
    for p in gctx.points:
        assert variety_of(gctx, presentation_pairs(kernel_of_point(p, g, ctx))) == point_closure(gctx, p)


def _majority() -> FiniteAlgebra:
    """The ternary majority op on {0, 1}: past the byte bound by its arity."""
    sig = Signature(("s",), [("maj", ("s", "s", "s"), "s")])
    maj = {a: int(sum(a) >= 2) for a in itertools.product(range(2), repeat=3)}
    return FiniteAlgebra(sig, (2,), {"maj": maj}, name="Maj")


def _hom_extension_cases():
    """(g, ctx, oracle, coordinate kernels too, within the byte bound)."""

    def over(g, names, byte=True):
        return g, VarContext(g.sig, [(n, g.sig.sorts[0]) for n in names]), oracles.o_variety_of_kernel, True, byte

    two_sig = Signature(
        ("a", "b"),
        [("m", ("a", "a"), "a"), ("f", ("b",), "a"), ("h", ("a",), "b"), ("c", (), "a"), ("d", (), "b")],
    )
    two = FiniteAlgebra(
        two_sig,
        (3, 2),
        {
            "m": {(i, j): (i * j + 1) % 3 for i in range(3) for j in range(3)},
            "f": {(0,): 0, (1,): 2},
            "h": {(0,): 1, (1,): 0, (2,): 1},
            "c": {(): 2},
            "d": {(): 0},
        },
        name="T",
    )
    termless = load_workspace(TERMLESS)
    return [
        *(over(cyclic_group(n), "xy") for n in range(2, 7)),
        over(klein_four(), "xy"),
        over(symmetric_group_3(), "xy"),
        *(over(mod_ring(n), "xy") for n in (2, 3, 4)),
        over(chain_semilattice(2), "xyz"),
        (two, VarContext(two_sig, [("x", "a"), ("y", "b"), ("z", "a")]), oracles.o_variety_of_kernel, True, True),
        # sort b has no term over C, so there is no coordinate algebra
        (termless.algebra("G"), termless.context("C"), oracles.o_variety_of_kernel, False, True),
        # past the byte bound: 17 * 17 > 256, and an op of arity 3
        over(cyclic_group(17), "x", byte=False),
        over(_majority(), "xy", byte=False),
    ]


@pytest.mark.parametrize(
    "g, ctx, oracle, coordinate, byte", _hom_extension_cases(), ids=lambda v: getattr(v, "name", None)
)
def test_variety_of_kernel_batch_matches_per_point_and_oracle(monkeypatch, g, ctx, oracle, coordinate, byte):
    """For the unit kernel, every point kernel and coordinate kernels of a
    few small sets (the diagonal among them), extend_all over byte columns
    and over tuple rows (byte_tables patched to None) agree with o_extend at
    every point, on flags and image columns, and variety_of_kernel keeps the
    points that extend. byte says whether g is within the byte bound. The
    oracle, slow on deep witnesses, checks the point kernels of a sample
    (the first point among them) and images of at most 16 members."""
    assert (g.byte_tables() is not None) == byte
    gctx, rng = GeoContext(g, ctx), random.Random(7)
    pts = gctx.points
    sample = {pts[0], *rng.sample(pts, min(4, len(pts)))}
    kernels = [(unit_kernel(ctx, g.sig), True)] + [(kernel_of_point(p, g, ctx), p in sample) for p in pts]
    if coordinate:
        sets = [rng.sample(pts, min(n, len(pts))) for n in (1, 2, 3)] + [[p for p in pts if len(set(p)) == 1]]
        kernels += [(k, k.image().size() <= 16) for k in (congruence_of(PointSet.of_points(gctx, a)) for a in sets)]
    shared = on_seed = 0
    for k, check_oracle in kernels:
        sub = k.image()
        shared += len(set(sub.seeds)) < len(sub.seeds)
        on_seed += any(not op.args and (op.result, sub.cells[op.name]) in sub.seeds for op in g.sig.ops)
        want = [oracles.o_extend(sub, p, g) for p in pts]
        got = variety_of_kernel(k, gctx).points()
        assert got == [p for p, w in zip(pts, want) if w is not None]
        assert not check_oracle or got == oracle(k, g, ctx)
        routes = [sub.extend_all(pts, g)]
        with monkeypatch.context() as m:
            m.setattr(FiniteAlgebra, "byte_tables", lambda self: None)
            routes.append(sub.extend_all(pts, g))
        for flags, cols in routes:
            assert list(flags) == [int(w is not None) for w in want]
            for i, w in enumerate(want):
                if w is not None:
                    assert [[col[i] for col in cs] for cs in cols] == w
    # some image has two variables on one seed, and some a constant on a seed
    assert shared or len({s for _, s in ctx.vars}) == len(ctx)
    assert on_seed or all(op.args for op in g.sig.ops)


def test_variety_of_kernel_makes_one_extend_all_call(monkeypatch, z4, gctx2):
    """Every point is decided by one extend_all call, within the byte bound
    (Z4) and past it (Z17)."""
    calls = []
    real = GeneratedSubalgebra.extend_all
    monkeypatch.setattr(GeneratedSubalgebra, "extend_all", lambda *args: calls.append(1) or real(*args))
    gctx = GeoContext(z4, gctx2)
    a = PointSet.of_points(gctx, [(0, 1), (2, 3)])
    closed = variety_of_kernel(congruence_of(a), gctx)
    assert a.issubset(closed) and len(closed) == 8 and calls == [1]
    assert closure_variety(a) == closed and calls == [1, 1]
    z17 = GeoContext(cyclic_group(17), VarContext(GROUP_SIG, [("x", "g")]))
    assert len(point_closure(z17, (3,))) == 17 and calls == [1, 1, 1]


@pytest.mark.parametrize("g, names", [(cyclic_group(17), "x"), (_majority(), "xyz")], ids=["Z17", "Maj"])
def test_kernel_leq_past_the_byte_bound(g, names):
    """A one-point extend_all over tuple rows: Ker(p) <= Ker(q) iff q is in
    the closure of p."""
    assert g.byte_tables() is None
    ctx = VarContext(g.sig, [(n, g.sig.sorts[0]) for n in names])
    gctx = GeoContext(g, ctx)
    for p in gctx.points:
        pc, kp = point_closure(gctx, p), kernel_of_point(p, g, ctx)
        assert [kernel_leq(kp, kernel_of_point(q, g, ctx)) for q in gctx.points] == [q in pc for q in gctx.points]


def test_point_closure_is_kernel_cone(z4, gctx2):
    gctx = GeoContext(z4, gctx2)
    for p in [(1, 2), (0, 0), (2, 1)]:
        pc = point_closure(gctx, p)
        kp = kernel_of_point(p, z4, gctx2)
        for q in gctx.points:
            kq = kernel_of_point(q, z4, gctx2)
            assert (q in pc) == kernel_leq(kp, kq)


def test_verbal_variety_per_point_images(s3, gctx2):
    gctx = GeoContext(s3, gctx2)
    v = verbal_variety(gctx, PairSet([SQ_E]))
    assert len(v) == 10
    ictx = VarContext(GROUP_SIG, [("x", "g")])
    for p in gctx.points:
        sub = subalgebra_generated(s3, [(0, p[0]), (0, p[1])])
        alg = sub.as_algebra()
        want = oracles.o_identity_holds(alg, ictx, SQ_E)
        assert (p in v) == want


def test_verbal_inside_plain_variety_and_closed(z4, gctx2):
    # the image satisfying an identity everywhere implies it at the point
    gctx = GeoContext(z4, gctx2)
    t = PairSet([SQ_E])
    v = verbal_variety(gctx, t)
    assert v.issubset(variety_of(gctx, t))
    assert closure_variety(v) == v


def test_endo_action_commutes_with_solutions(z2, z4, gctx2):
    rng = random.Random(2)
    pool = candidate_pairs(GROUP_SIG, gctx2, depth=2, seed=21, count=12)
    subs = [
        Substitution({"x": Y, "y": X}),
        Substitution({"x": app("mul", X, Y)}),
        Substitution({"x": app("inv", X), "y": app("e")}),
    ]
    for g in (z2, z4):
        gctx = GeoContext(g, gctx2)
        for _ in range(6):
            t = PairSet(rng.sample(pool, rng.randint(1, 3)))
            s = rng.choice(subs)
            left = variety_of(gctx, oracles.o_act_endo_pairs(s, t))
            right = act_endo_variety(s, variety_of(gctx, t))
            assert left == right


def test_morphism_check_positive_and_negative(z2, gctx2):
    gctx = GeoContext(z2, gctx2)
    ctx_z = VarContext(GROUP_SIG, [("z", "g")])
    gz = GeoContext(z2, ctx_z)
    diag = variety_of(gctx, PairSet([(X, Y)]))
    line = variety_of(gz, PairSet([]))
    s = Substitution({"z": X})
    ok = morphism_check(s, diag, line)
    assert ok.ok
    # send z to something leaving the target: target x=e
    target = variety_of(gz, PairSet([(var("z"), app("e"))]))
    bad = morphism_check(Substitution({"z": X}), diag, target)
    assert not bad.ok
    assert bad.failing_point in diag
    assert bad.image_point not in target


def test_variety_iso_diagonal_line(z2, gctx2):
    gctx = GeoContext(z2, gctx2)
    ctx_z = VarContext(GROUP_SIG, [("z", "g")])
    gz = GeoContext(z2, ctx_z)
    diag = variety_of(gctx, PairSet([(X, Y)]))
    line = variety_of(gz, PairSet([]))
    iso = variety_iso(diag, line)
    assert iso is not None
    fwd = morphism_check(iso.forward, diag, line)
    bwd = morphism_check(iso.backward, line, diag)
    assert fwd.ok and bwd.ok


def test_variety_iso_rejects_mismatched_sizes(z2, gctx2):
    gctx = GeoContext(z2, gctx2)
    diag = variety_of(gctx, PairSet([(X, Y)]))
    full = gctx.full()
    assert variety_iso(diag, full) is None


def test_variety_iso_empty_cases(z2, r5, gctx2, rctx2):
    gctx = GeoContext(z2, gctx2)
    rctx = GeoContext(r5, rctx2)
    e1 = rctx.empty()
    iso = variety_iso(e1, e1)
    assert iso is not None
    assert variety_iso(gctx.empty(), gctx.full()) is None


def test_coordinate_algebra_exact_s3_eight_points(s3, gctx2):
    # member order, witnesses and tables pinned from the round-by-round loop
    # that regenerated every combo each round
    a = PointSet(GeoContext(s3, gctx2), range(1, 17, 2))
    ca = coordinate_algebra(a)
    assert ca.algebra.sizes == (108,)
    assert ca.row_index == (0, 1)
    assert ca.vectors[0][:3] == ((0, 0, 0, 1, 1, 1, 2, 2), (1, 3, 5, 1, 3, 5, 1, 3), (0,) * 8)
    assert [render(w) for w in ca.witnesses[0][:10]] == [
        "x", "y", "(mul x x)", "(mul x y)", "(mul y x)", "(mul y y)", "(inv y)",
        "(mul x (mul y x))", "(mul x (mul y y))", "(mul x (inv y))",
    ]
    text = "\n".join(f"{v} {render(w)}" for v, w in zip(ca.vectors[0], ca.witnesses[0]))
    assert hashlib.sha256(text.encode()).hexdigest().startswith("2649c2a35624256d768dcc1abbdf73de")
    assert ca.algebra.digest() == "4ad6fe33b590"
    assert sorted(ca.vectors[0]) == oracles.o_row_subalgebra(s3, gctx2, a.points())[0]


def test_separating_pair_pinned(z2, z4, gctx1, gctx2):
    same = (kernel_of_point((1, 2), z4, gctx2), kernel_of_point((3, 2), z4, gctx2))
    assert separating_pair(*same) is None
    hit = separating_pair(kernel_of_point((1,), z2, gctx1), kernel_of_point((1,), z4, gctx1))
    assert (render(hit[0]), render(hit[1])) == ("x", "(inv x)")


def test_separating_pair_none_for_equal(z4, gctx2):
    k1 = kernel_of_point((1, 2), z4, gctx2)
    k2 = kernel_of_point((3, 2), z4, gctx2)
    assert separating_pair(k1, k1) is None
    hit = separating_pair(k1, k2)
    if hit is not None:
        assert k1.contains(hit) != k2.contains(hit)


def test_separating_pair_detects_difference(z2, z4, gctx1):
    k2 = kernel_of_point((1,), z2, gctx1)
    k4 = kernel_of_point((1,), z4, gctx1)
    hit = separating_pair(k2, k4)
    assert hit is not None
    assert k2.contains(hit) != k4.contains(hit)


def _separation_outcome(ka, kb, cap=None) -> str:
    try:
        pair = separating_pair(ka, kb, cap)
    except CapExceeded as e:
        return str(e)
    return "None" if pair is None else f"{render(pair[0])} = {render(pair[1])}"


def test_separating_pair_results_are_pinned(s3, z2, z4, z6, klein, gctx1, gctx2):
    """7,720 scans pinned by digest: every ordered pair of point kernels of
    five groups over one and two variables, and each point kernel over C2
    of Z4, S3 and Z6 against its closure over Z2, Z6 and S3 at four caps.
    Each result is the rendered pair, None, or the CapExceeded message."""
    out = []
    for g in (s3, z4, klein, z6, product([z2, z4])):
        for ctx in (gctx1, gctx2):
            ks = [kernel_of_point(p, g, ctx) for p in GeoContext(g, ctx).points]
            out += [_separation_outcome(ka, kb) for ka in ks for kb in ks]
    for h, g in ((z4, z2), (s3, z6), (z6, s3)):
        gctx = GeoContext(g, gctx2)
        for p in GeoContext(h, gctx2).points:
            k = kernel_of_point(p, h, gctx2)
            closed = congruence_of(variety_of_kernel(k, gctx))
            out += [_separation_outcome(k, closed, cap) for cap in (None, 3, 10, 40)]
    assert len(out) == 7720
    assert sum("exceeds cap" in o for o in out) == 121
    digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
    assert digest == "a5e0cf9d681511b4612c06f56c75d682e96abd4e97861b602f8573001d86138b"


def test_generations_intern_no_terms_until_witnesses_are_read(s3, z2, z4, z6):
    """Generating builds no term: a subalgebra, a hom search, the point walk
    of geometric_equiv and two closures leave the process-global intern table
    as it was. Reading a generation's witnesses interns them, and each one
    evaluates to its member at the generator rows. The generator names are
    used by no other test, so every witness over them is new."""
    names = ("intern_u", "intern_v")
    ctx1, ctx2 = (VarContext(s3.sig, [(n, "g") for n in names[:k]]) for k in (1, 2))
    before = len(terms._APPS)
    sub = subalgebra_generated(s3, [1, 3], gen_names=names)
    assert len(terms._APPS) == before
    s3z2 = product([s3, z2])
    h_ker(s3z2, s3)
    assert len(terms._APPS) == before
    # S3 is not in SP(Z6), so its side is walked point by point
    assert isinstance(geometric_equiv(s3, z6, ctx1), Equivalent)
    assert len(terms._APPS) == before
    gctx = GeoContext(z4, ctx2)
    a = PointSet(gctx, [1, 6, 11])
    closure_variety(a)
    point_closure(gctx, (1, 2))
    ca = coordinate_algebra(a)
    assert len(terms._APPS) == before
    greedy = s3z2.generation()
    for gen, g, ctx, pts in (
        (sub, s3, ctx2, [(1, 3)]),
        (greedy, s3z2, greedy.generator_context(), [tuple(e for _, _, e in greedy.gen_vars)]),
        (ca.generation, z4, ctx2, ca.point_list),
    ):
        want = [(s, list(m) if isinstance(m, tuple) else [m]) for s, ms in enumerate(gen.members) for m in ms]
        assert algebras.eval_columns([w for ws in gen.witnesses for w in ws], pts, g, ctx) == want
    assert len(terms._APPS) > before


def test_geometric_equiv_self(z4, gctx1):
    v = geometric_equiv(z4, z4, gctx1)
    assert isinstance(v, Equivalent)
    assert v.mode == "exact"


def test_geometric_equiv_z2_z4(z2, z4, gctx1):
    v = geometric_equiv(z2, z4, gctx1)
    assert isinstance(v, NotEquivalent)
    assert v.pair is not None
    # the witness is verified on both sides by construction; re-verify here
    ga, gb = GeoContext(z2, gctx1), GeoContext(z4, gctx1)
    ka = congruence_of(closure_variety(variety_of(ga, v.equations)))
    kb = congruence_of(closure_variety(variety_of(gb, v.equations)))
    assert ka.contains(v.pair) != kb.contains(v.pair)


def test_geometric_equiv_has_one_mode(z2, gctx1):
    with pytest.raises(ValueError, match="unknown mode 'sampled'"):
        geometric_equiv(z2, z2, gctx1, mode="sampled")


def _assert_witness_splits(v, by_name, ctx):
    eqs = list(v.equations)
    assert oracles.o_closure_member(by_name[v.holds_in], ctx, eqs, v.pair)
    assert not oracles.o_closure_member(by_name[v.fails_in], ctx, eqs, v.pair)


EQUIV_FAMILIES = {
    "groups-C1": ([cyclic_group(n) for n in range(2, 7)] + [klein_four()], 1),
    "groups-C2": ([cyclic_group(n) for n in range(2, 5)] + [klein_four()], 2),
    "semilattices-C1": ([chain_semilattice(2), chain_semilattice(3), vee_semilattice()], 1),
    "semilattices-C2": ([chain_semilattice(2), chain_semilattice(3), vee_semilattice()], 2),
    "rings-C1": ([mod_ring(n) for n in range(2, 5)], 1),
}


@pytest.mark.parametrize("family", list(EQUIV_FAMILIES))
def test_geometric_equiv_agrees_with_the_sweep(family):
    """Plotkin's local test gives the sweep's verdict on every ordered pair,
    and each negative witness splits the two closures, by brute force."""
    algebras, n = EQUIV_FAMILIES[family]
    ctx = _context(algebras[0], n)
    for g, h in itertools.product(algebras, repeat=2):
        v = geometric_equiv(g, h, ctx)
        assert type(v) is type(oracles.o_equiv_by_sweep(g, h, ctx)), (g.name, h.name)
        if isinstance(v, NotEquivalent):
            _assert_witness_splits(v, {g.name: g, h.name: h}, ctx)


def test_geometric_equiv_past_the_sweep(r5, z6, s3, gctx3):
    """The term functions of R5 in one variable are all 5^5 maps, whose
    tables pass the default cap, so the sweep raises CapExceeded there; S3
    over three variables has 216 points."""
    assert isinstance(geometric_equiv(r5, r5, _context(r5, 1)), Equivalent)
    v = geometric_equiv(z6, s3, gctx3)
    assert isinstance(v, NotEquivalent)
    _assert_witness_splits(v, {"Z6": z6, "S3": s3}, gctx3)


def test_geometric_equiv_has_no_point_bound(z2, z4, gctx2):
    """max_points is accepted, with a DeprecationWarning, and changes nothing."""
    with pytest.warns(DeprecationWarning, match="max_points"):
        v = geometric_equiv(z2, z4, gctx2, max_points=1)
    assert v == geometric_equiv(z2, z4, gctx2)
    assert isinstance(v, NotEquivalent) and v.notice == ""


def test_geometric_equiv_costs_one_generation_per_point(monkeypatch, z2, z4, klein):
    """No closed-set sweep. A side in SP of the other as a whole generates
    no point subalgebra; a side that is not generates one per point up to
    the first failing class, with one h_ker per class reached, which is
    given the class's generation, not its algebra."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("all_closed_point_sets called")

    generated, tested = [], []
    real_generated, real_h_ker = geometry.subalgebra_generated, geometry.h_ker
    monkeypatch.setattr(geometry, "all_closed_point_sets", no_sweep)
    monkeypatch.setattr(
        geometry, "subalgebra_generated", lambda g, *a, **k: generated.append(g) or real_generated(g, *a, **k)
    )
    monkeypatch.setattr(geometry, "h_ker", lambda g, *a, **k: tested.append(g) or real_h_ker(g, *a, **k))
    # Z2 and V4 each lie in SP of the other; Z2 lies in SP(Z4), Z4 not in SP(Z2).
    # Z4's first two points over C1 generate S_(0) = {0}, which passes, and S_(1) = Z4
    s_0, s_1 = ("sub(Z4)", (1,)), ("sub(Z4)", (4,))
    for g, h, n, verdict, reached, tests in (
        (z2, klein, 2, Equivalent, (), [("Z2", (2,)), ("V4", (4,))]),
        (z4, z2, 1, NotEquivalent, (z4, z4), [("Z4", (4,)), s_0, s_1]),
        (z2, z4, 1, NotEquivalent, (z4, z4), [("Z2", (2,)), ("Z4", (4,)), s_0, s_1]),
    ):
        generated.clear(), tested.clear()
        assert isinstance(geometric_equiv(g, h, _context(g, n)), verdict)
        assert generated == list(reached)
        assert [(a.name, a.as_algebra().sizes if isinstance(a, GeneratedSubalgebra) else a.sizes) for a in tested] == tests
        assert [isinstance(a, GeneratedSubalgebra) for a in tested] == [name == "sub(Z4)" for name, _ in tests]


def test_geometric_equiv_under_a_cap_walks_the_points(z4):
    """The whole-algebra hom search Z2xZ4 -> Z4 tries 16 images of two
    generators; past cap 10 that side falls back to its point classes, which
    fit."""
    z2xz4 = product([cyclic_group(2), z4], name="Z2xZ4")
    with pytest.raises(CapExceeded, match="hom search: 16 exceeds cap 10"):
        geometry.h_ker(z2xz4, z4, 10)
    assert geometric_equiv(z4, z2xz4, _context(z4, 1), cap=10) == Equivalent(mode="exact")


def _semilattices():
    c2 = chain_semilattice(2)
    return [c2, chain_semilattice(3), vee_semilattice(), product([c2, c2], name="C2xC2")]


def _grid_groups():
    z2, s3 = cyclic_group(2), symmetric_group_3()
    return [cyclic_group(n) for n in range(2, 7)] + [
        klein_four(),
        s3,
        product([z2, cyclic_group(4)], name="Z2xZ4"),
        product([s3, z2], name="S3xZ2"),
        product([z2, z2, z2], name="Z2^3"),
        product([z2, cyclic_group(3)], name="Z2xZ3"),
    ]


# (algebras, variable counts); the eager route takes about 0.6 s for the first
# eight groups over C3, and several seconds with the larger products
EAGER_GRID = {
    "groups": (_grid_groups(), (1, 2)),
    "groups-C3": (_grid_groups()[:8], (3,)),
    "semilattices": (_semilattices(), (1, 2, 3)),
    "rings": ([mod_ring(n) for n in range(2, 6)], (1, 2)),
}


@pytest.mark.parametrize("family", list(EAGER_GRID))
def test_geometric_equiv_matches_the_eager_route(family):
    """Testing the whole algebra first and walking classes lazily gives the
    same JSON bytes as generating every point class first."""
    algebras, counts = EAGER_GRID[family]
    for n in counts:
        ctx = _context(algebras[0], n)
        for g, h in itertools.product(algebras, repeat=2):
            got = reports.emit({"verdict": geometric_equiv(g, h, ctx)}, "json")
            assert got == reports.emit({"verdict": oracles.o_equiv_eager(g, h, ctx)}, "json"), (g.name, h.name, n)


def test_parabola_closure_frozen(r5, rctx2):
    gctx = GeoContext(r5, rctx2)
    parabola = variety_of(gctx, PairSet([(app("mul", Y, Y), X)]))
    assert parabola.points() == [(0, 0), (1, 1), (1, 4), (4, 2), (4, 3)]
    assert pointwise_closed(parabola, "mul")
    assert not pointwise_closed(parabola, "add")
    steep = variety_of(gctx, PairSet([(app("mul", Y, Y), app("mul", app("two"), X))]))
    assert steep.points() == [(0, 0), (2, 2), (2, 3), (3, 1), (3, 4)]
    assert not pointwise_closed(steep, "mul")
    line = variety_of(gctx, PairSet([(Y, app("mul", app("two"), X))]))
    assert pointwise_closed(line, "add")
    assert pointwise_closed(line, "zero")


def test_pointwise_closed_validates_sorts(z2, gctx2):
    gctx = GeoContext(z2, gctx2)
    with pytest.raises(ValueError):
        pointwise_closed(gctx.full(), "missing")


def test_faithful_solvable_verdicts(z2):
    c0, c1 = app("c0"), app("c1")
    bad = faithful_solvable(z2, [(c0, c1)])
    assert bad.status == "not-faithful"
    assert bad.witness is not None
    ok = faithful_solvable(z2, [(app("mul", c1, c1), c0)])
    assert ok.status == "faithful-ground"
    open_status = faithful_solvable(z2, [(var("x"), c1)])
    assert open_status.status == "unknown"


def test_nullstellensatz_routes_agree(z2, z3, z4, chain2, gctx2, sctx2):
    cases = [
        (z4, z2, (1, 2)),
        (z2, z4, (1, 0)),
        (z3, z3, (1, 2)),
    ]
    for h, g, q in cases:
        rep = nullstellensatz_check(kernel_of_point(q, h, gctx2), GeoContext(g, gctx2))
        assert rep.agrees and rep.meet_agrees
    rep = nullstellensatz_check(
        kernel_of_point((0, 1), chain2, sctx2), GeoContext(chain2, sctx2)
    )
    assert rep.agrees and rep.meet_agrees


def test_nullstellensatz_hom_count_frozen(z4, z2, gctx2):
    rep = nullstellensatz_check(kernel_of_point((1, 2), z4, gctx2), GeoContext(z2, gctx2))
    assert rep.hom_count == 2


def test_nullstellensatz_probe_pool_built_once(monkeypatch, z4, z2, gctx2):
    """The sample probes are candidate_pairs(sig, ctx, 2, seed=17, count=25),
    built on the first call for a signature and context and then reused,
    also by an equal context that is another object."""
    built = []
    pairs = geometry.candidate_pairs
    monkeypatch.setattr(geometry, "_PROBE_POOLS", {})
    monkeypatch.setattr(geometry, "candidate_pairs", lambda *args, **kw: built.append(args) or pairs(*args, **kw))
    first = nullstellensatz_check(kernel_of_point((1, 2), z4, gctx2), GeoContext(z2, gctx2))
    ctx = VarContext(GROUP_SIG, [("x", "g"), ("y", "g")])
    again = nullstellensatz_check(kernel_of_point((1, 2), z4, ctx), GeoContext(z2, ctx))
    assert first == again
    assert built == [(GROUP_SIG, gctx2, 2)]
    pool = geometry._probe_pool(GROUP_SIG, ctx)
    assert pool == tuple(pairs(GROUP_SIG, gctx2, 2, seed=17, count=25))
    other = VarContext(GROUP_SIG, [("x", "g"), ("z", "g")])
    assert geometry._probe_pool(GROUP_SIG, other) == tuple(pairs(GROUP_SIG, other, 2, seed=17, count=25))
    assert len(built) == 2


def test_nullstellensatz_homs_are_the_points_of_the_variety(z2, z3, z4, z6, s3, chain2):
    """Homs W/T -> G correspond to the points of V(T), on every nullsatz
    input of the library and CLI tests: (image, assignment, target)."""
    cases = [
        (z4, (1, 2), z2),
        (z2, (1, 0), z4),
        (z3, (1, 2), z3),
        (chain2, (0, 1), chain2),
        (s3, (1, 3), z6),
        (z4, (1,), z2),
        (z2, (1,), z4),
    ]
    for h, q, g in cases:
        ctx = _context(h, len(q))
        t, gctx = kernel_of_point(q, h, ctx), GeoContext(g, ctx)
        rep = nullstellensatz_check(t, gctx)
        assert rep.agrees and rep.meet_agrees
        assert rep.hom_count == len(variety_of_kernel(t, gctx)), (h.name, q, g.name)


def _swap_witnesses(gen) -> None:
    gen._witnesses = (tuple(reversed(gen.witnesses[0])), *gen.witnesses[1:])


def _shift_a_cell(gen) -> None:
    row = gen.cells["mul"][0]
    row[0] = (row[0] + 1) % len(gen.members[0])


@pytest.mark.parametrize("fault", [_swap_witnesses, _shift_a_cell])
def test_nullstellensatz_meet_view_catches_a_wrong_witness_or_cell(monkeypatch, fault, z4, s3, gctx2):
    """The meet view checks the coordinate algebra's witnesses and tables at
    the points of V(T), in place of its presentation: a generation with one
    fault fails it."""
    t = kernel_of_point((1, 2), z4, gctx2)
    gctx = GeoContext(s3, gctx2)
    assert nullstellensatz_check(t, gctx).meet_agrees
    built, real = [], geometry.coordinate_algebra

    def faulty(a, cap=None):
        c = real(a, cap)
        fault(c.generation)
        built.append(c)
        return c

    monkeypatch.setattr(geometry, "coordinate_algebra", faulty)
    assert not nullstellensatz_check(t, gctx).meet_agrees
    assert [geometry._holds_at_points(c) for c in built] == [False]


def test_nullstellensatz_s3_over_c2_without_equations(s3, gctx2):
    """T'' of the empty system over S3/C2: the coordinate algebra of all 36
    points has 972 elements, and the meet view checks them, not the
    944,787 pairs of its presentation."""
    gctx = GeoContext(s3, gctx2)
    rep = nullstellensatz_check(closure_pairs(gctx, []), gctx)
    assert (rep.agrees, rep.meet_agrees, rep.image_sizes, rep.quotient_sizes, rep.hom_count) == (
        True, True, (972,), (972,), 36
    )
    assert rep.separating is None


def test_nullstellensatz_context_mismatch_fails_before_the_hom_search(s3, gctx2):
    """A kernel over three variables against a context of two raises the
    context fault, where the hom search of its image, S3 on two greedy
    generators, would pass cap 10."""
    t = kernel_of_point((1, 2, 3), s3, _context(s3, 3))
    with pytest.raises(ValueError, match="kernel and geometry context disagree"):
        nullstellensatz_check(t, GeoContext(s3, gctx2), cap=10)


def test_nullstellensatz_charges_the_hom_search_of_its_image(s3, gctx2):
    """Ker at (e, a) has the image {e, a}, whose seed x is e's member, so
    only y is searched: the cap is charged |S3| = 6 where both variables
    would count 36, and a cap of 20 passes."""
    t, gctx = kernel_of_point((0, 1), s3, gctx2), GeoContext(s3, gctx2)
    rep = nullstellensatz_check(t, gctx)
    assert nullstellensatz_check(t, gctx, cap=20) == rep
    assert (rep.agrees, rep.meet_agrees, rep.image_sizes, rep.hom_count) == (True, True, (2,), 4)
    with pytest.raises(CapExceeded, match=r"^hom search: 6 exceeds cap 5$"):
        nullstellensatz_check(t, gctx, cap=5)


def test_nullstellensatz_extends_the_image_over_the_points_once(monkeypatch, z4, s3, gctx2):
    """One extend_all of T's image over the context's points gives V(T),
    hom_count and the blocks of the hom kernels' meet; the only other one is
    _holds_at_points' over V(T). Neither enumerate_homs nor
    variety_of_kernel runs."""
    calls, real = [], algebras.GeneratedSubalgebra.extend_all

    def counted(self, points, b):
        calls.append((self, list(points), b))
        return real(self, points, b)

    def forbidden(*args, **kw):
        raise AssertionError("not called by nullstellensatz_check")

    monkeypatch.setattr(algebras.GeneratedSubalgebra, "extend_all", counted)
    for module, name in ((algebras, "enumerate_homs"), (geometry, "enumerate_homs"), (geometry, "variety_of_kernel")):
        monkeypatch.setattr(module, name, forbidden)
    t, gctx = kernel_of_point((1, 2), z4, gctx2), GeoContext(s3, gctx2)
    rep = nullstellensatz_check(t, gctx)
    variety = oracles.o_variety_of_kernel(t, s3, gctx2)
    assert rep.agrees and rep.meet_agrees and rep.hom_count == len(variety) > 1
    assert [(sub is t.image(), points, b) for sub, points, b in calls] == [
        (True, list(gctx.points), s3),
        (False, variety, s3),
    ]


def test_coordinate_algebra_cap(z4, gctx2):
    gctx = GeoContext(z4, gctx2)
    with pytest.raises(CapExceeded):
        coordinate_algebra(gctx.full(), cap=3)


def test_candidate_pairs_deterministic():
    ctx = VarContext(GROUP_SIG, [("x", "g"), ("y", "g")])
    a = candidate_pairs(GROUP_SIG, ctx, depth=2, seed=13, count=10)
    b = candidate_pairs(GROUP_SIG, ctx, depth=2, seed=13, count=10)
    assert a == b
    assert len(a) == len(set(a)) == 10
    for l, r in a:
        assert l is not r
