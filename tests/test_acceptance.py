"""Acceptance suite: one test per numbered criterion, one printed verdict line each.

Run with -s (or read the lines below the failure report) to see the verdicts;
every criterion is exact, no tolerances anywhere.
"""
import random
import sys
import time
from contextlib import contextmanager

import pytest

from uag import rules
from uag.algebras import (
    GROUP_SIG,
    RING_SIG,
    SEMILATTICE_SIG,
    chain_semilattice,
    cyclic_group,
    product,
    satisfies_identity,
    subalgebra_generated,
    vee_semilattice,
)
from uag.congruences import (
    PairSet,
    ground_closure,
    h_ker,
    kernel_leq,
    kernel_of_point,
    meet_kernels,
)
from uag.geometry import (
    Equivalent,
    NotEquivalent,
    act_endo_variety,
    candidate_pairs,
    closure_pairs,
    closure_variety,
    congruence_of,
    geometric_equiv,
    morphism_check,
    nullstellensatz_check,
    pointwise_closed,
    random_term,
    variety_iso,
    variety_of,
    variety_of_kernel,
    verbal_variety,
)
from uag.logic import (
    Eq,
    Model,
    Not,
    RelSignature,
    eval_formula,
    exists_f,
    fo_variety,
    fundamental_check,
    halmos_axiom_violations,
    is_open,
    open_variety_check,
    random_formula,
    subst_formula,
    substitution_theorem_check,
)
from uag.rules import (
    SaturationBounds,
    derive_closure,
    identity,
    pseudo,
    quasi,
    soundness_check,
    universal,
)
from uag.spaces import GeoContext, PointSet
from uag.terms import Substitution, VarContext, app, apply_subst, var

import oracles

X, Y, Z = var("x"), var("y"), var("z")


def _mul(a, b):
    return app("mul", a, b)


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {label}", file=sys.__stdout__, flush=True)
        raise
    print(f"[PASS] criterion {n}: {label}", file=sys.__stdout__, flush=True)


def all_subsets(gctx):
    n = len(gctx.points)
    return [
        PointSet(gctx, [i for i in range(n) if mask >> i & 1])
        for mask in range(1 << n)
    ]


def test_criterion_1(z2, z4, klein, gctx2):
    with criterion(1, "Galois laws, exhaustive over Z2 and randomized"):
        gctx = GeoContext(z2, gctx2)
        subsets = all_subsets(gctx)
        closures = {a.indices: closure_variety(a) for a in subsets}
        for a in subsets:
            cl = closures[a.indices]
            assert a.indices <= cl.indices
            assert closure_variety(cl) == cl
            ka, kcl = congruence_of(a), congruence_of(cl)
            assert kernel_leq(ka, kcl) and kernel_leq(kcl, ka)
        for a in subsets:
            for b in subsets:
                if a.indices <= b.indices:
                    assert kernel_leq(congruence_of(b), congruence_of(a))
        rng = random.Random(20260817)
        for i in range(200):
            g = (z2, z4, klein)[i % 3]
            gctx = GeoContext(g, gctx2)
            pool = candidate_pairs(GROUP_SIG, gctx2, 3, seed=i, count=10)
            t = rng.sample(pool, rng.randint(0, 4))
            a = variety_of(gctx, t)
            k = closure_pairs(gctx, t)
            assert all(k.contains(pr) for pr in t)
            assert closure_variety(a) == a
            wider = t + rng.sample(pool, rng.randint(0, 2))
            assert variety_of(gctx, wider).indices <= a.indices


def test_criterion_2(z2, z3, z4, chain2, gctx2, sctx2):
    with criterion(2, "Nullstellensatz, 100 random kernel-presented systems"):
        rng = random.Random(2)
        cases = [(z2, gctx2), (z3, gctx2), (z4, gctx2), (chain2, sctx2)]
        for i in range(100):
            g, ctx = cases[i % 4]
            pts = [
                tuple(rng.randrange(g.sizes[s]) for _, s in ctx.vars)
                for _ in range(rng.randint(1, 4))
            ]
            t_kernel = meet_kernels([kernel_of_point(p, g, ctx) for p in pts])
            gctx = GeoContext(g, ctx)
            rep = nullstellensatz_check(t_kernel, gctx)
            assert rep.agrees and rep.meet_agrees, (g.name, pts, rep)
            assert rep.hom_count == len(variety_of_kernel(t_kernel, gctx))


def test_criterion_3(z2, z3, chain2, chain3, vee):
    with criterion(3, "kernel and product lemmas, exhaustive to size 3"):
        groups = [cyclic_group(1), z2, z3]
        semis = [chain_semilattice(1), chain2, chain3, vee]
        for pool in (groups, semis):
            for g in pool:
                for h in pool:
                    assert h_ker(g, product([h, h])) == h_ker(g, h)
                for h1 in pool:
                    for h2 in pool:
                        lhs = h_ker(g, product([h1, h2]))
                        assert lhs == h_ker(g, h1).meet(h_ker(g, h2))


def test_criterion_4_and_5(z2, z4, klein, gctx1, gctx2):
    z2xz4 = product([z2, z4], name="Z2xZ4")
    verdicts = {}
    with criterion(4, "geometric equivalence verdicts on the four instances"):
        expect = [
            (z2, z4, NotEquivalent),
            (z2, klein, Equivalent),
            (z4, z2xz4, Equivalent),
            (klein, z4, NotEquivalent),
        ]
        by_name = {g.name: g for g in (z2, z4, klein, z2xz4)}
        for g, h, want in expect:
            t0 = time.monotonic()
            v = geometric_equiv(g, h, gctx1, mode="exact")
            assert time.monotonic() - t0 < 10.0
            assert isinstance(v, want), (g.name, h.name, v)
            verdicts[(g.name, h.name)] = v
            if isinstance(v, NotEquivalent):
                k_holds = closure_pairs(
                    GeoContext(by_name[v.holds_in], gctx1), list(v.equations)
                )
                k_fails = closure_pairs(
                    GeoContext(by_name[v.fails_in], gctx1), list(v.equations)
                )
                assert k_holds.contains(v.pair)
                assert not k_fails.contains(v.pair)
    with criterion(5, "equivalent pairs satisfy the same identities to depth 3"):
        pool = candidate_pairs(GROUP_SIG, gctx2, 3, seed=31, count=300)
        for g, h in ((z2, klein), (z4, z2xz4)):
            assert isinstance(verdicts[(g.name, h.name)], Equivalent)
            for pr in pool:
                assert satisfies_identity(g, pr, gctx2) == satisfies_identity(
                    h, pr, gctx2
                ), (g.name, h.name, pr)


def test_criterion_6(z2, z4, klein, gctx2):
    with criterion(6, "endomorphism action laws, 200 random instances"):
        rng = random.Random(66)
        rel_sig = RelSignature(GROUP_SIG, [("P", ["g"])])
        swap = Substitution({"x": Y, "y": X})
        ident = Substitution({})
        models = {
            g.name: Model(g, rel_sig, {"P": [(1,)]}, name=f"M{g.name}")
            for g in (z2, z4, klein)
        }
        pools = {
            g.name: candidate_pairs(GROUP_SIG, gctx2, 2, seed=6, count=12)
            for g in (z2, z4, klein)
        }

        def random_open_formula():
            for _ in range(40):
                u = random_formula(rng, GROUP_SIG, gctx2, rel_sig, depth=2)
                if is_open(u):
                    return u
            return Eq(X, Y)

        for i in range(200):
            g = (z2, z4, klein)[i % 3]
            gctx = GeoContext(g, gctx2)
            m = models[g.name]
            s = Substitution(
                {
                    "x": random_term(rng, GROUP_SIG, gctx2, rng.randint(0, 2)),
                    "y": random_term(rng, GROUP_SIG, gctx2, rng.randint(0, 2)),
                }
            )
            t = rng.sample(pools[g.name], rng.randint(0, 3))
            a = PointSet(
                gctx,
                rng.sample(
                    range(len(gctx.points)), rng.randint(0, min(5, len(gctx.points)))
                ),
            )
            left = variety_of(gctx, oracles.o_act_endo_pairs(s, t))
            right = act_endo_variety(s, variety_of(gctx, t))
            assert left == right
            sp = (ident, swap)[rng.randrange(2)]
            assert closure_variety(act_endo_variety(sp, a)) == act_endo_variety(
                sp, closure_variety(a)
            )
            k_left = congruence_of(act_endo_variety(sp, a))
            k_a = congruence_of(a)
            # sp is an involution, so applying it once is applying its inverse
            for pr in rng.sample(pools[g.name], 4):
                back = (apply_subst(sp, pr[0]), apply_subst(sp, pr[1]))
                assert k_left.contains(pr) == k_a.contains(back)
            fos = [random_open_formula() for _ in range(rng.randint(1, 2))]
            left_fo = fo_variety(m, [subst_formula(s, u) for u in fos], gctx)
            right_fo = act_endo_variety(s, fo_variety(m, fos, gctx))
            assert left_fo == right_fo
            sa = act_endo_variety(sp, a)
            for u in fos:
                val_u = eval_formula(m, u, gctx)
                val_su = eval_formula(m, subst_formula(sp, u), gctx)
                assert (sa.indices <= val_su.indices) == (
                    a.indices <= val_u.indices
                )


def test_criterion_7(z2, z3, z4, klein, gctx2, gctx3):
    with criterion(7, "closure-rule soundness, 20 random seed sets per kind"):
        pool = [z2, z3, z4, klein]
        bounds = SaturationBounds(depth=2, width=1, iterations=2, budget=600)
        lifts = {
            "identity": lambda p: identity(p),
            "pseudo": lambda p: pseudo([p]),
            "universal": lambda p: universal([p], []),
            "quasi": lambda p: quasi([], p),
        }
        for kind, lift in lifts.items():
            for j in range(20):
                pairs = candidate_pairs(
                    GROUP_SIG, gctx2, 2, seed=700 + 13 * j, count=6
                )
                seeds = [lift(p) for p in pairs[: 1 + j % 2]]
                if kind == "quasi" and j % 3 == 0:
                    seeds.append(quasi([pairs[2]], pairs[3]))
                res = derive_closure(kind, seeds, GROUP_SIG, gctx2, bounds)
                viols = soundness_check(res.clauses, seeds, pool, gctx2)
                assert viols == [], (kind, j, viols[:3])
        assert ground_closure(PairSet([(X, Y), (Y, Z)])).contains((X, Z))
        premises = [pseudo([(X, Y)]), pseudo([(Y, Z)])]
        assert rules._derived_mask(premises, *rules._grouped([pseudo([(X, Z)])], ()), {})


def test_criterion_8(z2, gctx2):
    with criterion(8, "Halmos axioms exhaustive on Z2 plus substitution theorem"):
        gctx = GeoContext(z2, gctx2)
        rng = random.Random(8)
        rel_sig = RelSignature(GROUP_SIG, [("P", ["g"])])
        m = Model(z2, rel_sig, {"P": [(1,)]}, name="MZ2")
        formulas = [
            random_formula(rng, GROUP_SIG, gctx2, rel_sig, depth=2)
            for _ in range(50)
        ]
        family = {eval_formula(m, u, gctx) for u in formulas}
        family.update(all_subsets(gctx))
        subs = [
            Substitution({}),
            Substitution({"x": Y, "y": X}),
            Substitution({"x": Y}),
            Substitution({"x": app("e")}),
            Substitution({"x": _mul(X, Y)}),
        ]
        assert halmos_axiom_violations(gctx, sorted(family, key=lambda a: sorted(a.indices)), subs) == []
        for i in range(100):
            u = random_formula(rng, GROUP_SIG, gctx2, rel_sig, depth=2)
            p = gctx.points[rng.randrange(len(gctx.points))]
            assert substitution_theorem_check(m, u, gctx, point=p), (u, p)


def test_criterion_9(z4, s3, gctx2):
    with criterion(9, "open-formula geometry and the submodel counterexample"):
        rng = random.Random(9)
        rel_sig = RelSignature(GROUP_SIG, [("P", ["g"])])
        m4 = Model(z4, rel_sig, {"P": [(1,), (3,)]}, name="M4")
        m3 = Model(s3, rel_sig, {"P": [(0,)]}, name="M3")
        for i in range(200):
            m = (m4, m3)[i % 2]
            g = m.algebra
            seeds = [(0, rng.randrange(g.sizes[0])) for _ in range(rng.randint(1, 2))]
            members = list(subalgebra_generated(g, seeds).members)
            u = None
            for _ in range(40):
                cand = random_formula(rng, GROUP_SIG, gctx2, rel_sig, depth=2)
                if is_open(cand):
                    u = cand
                    break
            u = u if u is not None else Eq(X, Y)
            rep = fundamental_check(m, members, u, gctx2)
            assert rep.relation == "equal", (m.name, members, u, rep)
        z2 = cyclic_group(2)
        mz2 = Model(z2, RelSignature(GROUP_SIG, []), {}, name="MZ2")
        rep = fundamental_check(
            mz2, [[0]], exists_f(["y"], Not(Eq(X, Y))), gctx2
        )
        assert rep.relation == "sub-below"
        assert rep.sub_value == 0 and rep.restricted_value == 1
        ms3 = Model(s3, RelSignature(GROUP_SIG, []), {}, name="MS3")
        gctx_s3 = GeoContext(s3, gctx2)
        comm = Eq(_mul(X, Y), _mul(Y, X))
        rep2 = open_variety_check(ms3, [comm], gctx_s3)
        assert rep2.agrees and rep2.all_open
        assert fo_variety(ms3, [comm], gctx_s3) == verbal_variety(
            gctx_s3, [(_mul(X, Y), _mul(Y, X))]
        )


def test_criterion_10(r5, rctx2):
    with criterion(10, "parabola and line closure under pointwise operations"):
        gctx = GeoContext(r5, rctx2)
        parabola = variety_of(gctx, [(_mul(Y, Y), X)])
        assert pointwise_closed(parabola, "mul") is True
        steep = variety_of(gctx, [(_mul(Y, Y), _mul(app("two"), X))])
        assert pointwise_closed(steep, "mul") is False
        line = variety_of(gctx, [(Y, _mul(app("two"), X))])
        assert pointwise_closed(line, "add") is True


def test_criterion_11(z2, gctx2):
    with criterion(11, "variety isomorphism for the diagonal and the line"):
        gctx = GeoContext(z2, gctx2)
        diag = variety_of(gctx, [(X, Y)])
        line_ctx = VarContext(GROUP_SIG, [("z", "g")])
        line = variety_of(GeoContext(z2, line_ctx), [])
        t0 = time.monotonic()
        iso = variety_iso(diag, line)
        assert time.monotonic() - t0 < 1.0
        assert iso is not None
        assert morphism_check(iso.forward, diag, line).ok
        assert morphism_check(iso.backward, line, diag).ok
        from uag.algebras import eval_columns

        for p in diag.points():
            q = tuple(
                v for _, [v] in eval_columns([iso.forward(n) for n in line_ctx.names], [p], z2, gctx2)
            )
            back = tuple(
                v for _, [v] in eval_columns([iso.backward(n) for n in gctx2.names], [q], z2, line_ctx)
            )
            assert back == p
        t0 = time.monotonic()
        point = variety_of(gctx, [(X, app("e")), (Y, app("e"))])
        assert variety_iso(diag, point) is None
        assert time.monotonic() - t0 < 1.0


def ground_term(rng, sig, depth):
    nullaries = [op for op in sig.ops if op.arity == 0]
    builders = [op for op in sig.ops if op.arity > 0]
    if depth <= 0 or rng.random() < 0.35:
        op = nullaries[rng.randrange(len(nullaries))]
        return app(op.name)
    op = builders[rng.randrange(len(builders))]
    return app(op.name, *[ground_term(rng, sig, depth - 1) for _ in op.args])


def test_criterion_12():
    with criterion(12, "ground congruence closure against the relabel oracle"):
        rng = random.Random(12)
        for i in range(300):
            sig = (GROUP_SIG, RING_SIG)[i % 2]
            terms = [
                ground_term(rng, sig, rng.randint(0, 3))
                for _ in range(rng.randint(2, 10))
            ]
            pairs = [
                (terms[rng.randrange(len(terms))], terms[rng.randrange(len(terms))])
                for _ in range(rng.randint(1, 6))
            ]
            gc = ground_closure(pairs, terms)
            classes, label, _ = oracles.o_ground_closure_classes(pairs, terms)
            universe = [t for cls in classes for t in cls]
            assert len(universe) <= 200
            for a in universe:
                for b in universe:
                    assert gc.contains((a, b)) == (label[id(a)] == label[id(b)])
