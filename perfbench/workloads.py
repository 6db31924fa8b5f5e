"""The benchmark's three workloads: seeded inputs, the ops on them, their checks.

Every op is one call that yields a verdict. ``run`` is what the harness
times; ``canon`` turns its result into a canonical string for the output
digest; ``check`` compares the result with an independent route and returns
a message on mismatch. Checks and digests run after the timed loop.

Inputs whose cost would swing with the seed are built as seeded images of
fixed base instances: a random product of Nielsen moves on (x, y), which is an
automorphism of the free group, maps point sets to point sets with the same
closures and coordinate algebras up to isomorphism. So every seed sees
different points while the work per cycle stays put.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import uag
import uag.cli
from uag.algebras import GROUP_SIG, RING_SIG, SEMILATTICE_SIG

import reference as ref

BASE_SEED = 20030312
DEEP = 5000


class Op:
    __slots__ = ("kind", "summary", "run", "check", "canon", "expect_fail")

    def __init__(self, kind, summary, run, check, canon=repr, expect_fail=False):
        self.kind = kind
        self.summary = summary
        self.run = run
        self.check = check
        self.canon = canon
        self.expect_fail = expect_fail


# ---------------------------------------------------------------- inputs


def rand_term(rng, sig, names, depth):
    nullary = [op.name for op in sig.ops if op.arity == 0]
    compound = [op for op in sig.ops if op.arity > 0]
    if depth <= 0 or rng.random() < 0.35:
        atoms = list(names) + nullary
        a = atoms[rng.randrange(len(atoms))]
        return uag.var(a) if a in names else uag.app(a)
    op = compound[rng.randrange(len(compound))]
    return uag.app(op.name, *[rand_term(rng, sig, names, depth - 1) for _ in op.args])


def rand_pair(rng, sig, names, depth):
    while True:
        a = rand_term(rng, sig, names, rng.randint(0, depth))
        b = rand_term(rng, sig, names, rng.randint(0, depth))
        if a is not b:
            return (a, b)


def rand_formula(rng, sig, names, rel, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rel and rng.random() < 0.4:
            return uag.Rel(rel, (rand_term(rng, sig, names, 1),))
        return uag.Eq(*rand_pair(rng, sig, names, 1))
    if roll < 0.5:
        return uag.And(tuple(rand_formula(rng, sig, names, rel, depth - 1) for _ in range(2)))
    if roll < 0.7:
        return uag.Or(tuple(rand_formula(rng, sig, names, rel, depth - 1) for _ in range(2)))
    if roll < 0.85:
        return uag.Not(rand_formula(rng, sig, names, rel, depth - 1))
    ys = rng.sample(list(names), rng.randint(1, max(1, len(names) - 1)))
    return uag.Exists(tuple(ys), rand_formula(rng, sig, names, rel, depth - 1))


def formula_text(f) -> str:
    if isinstance(f, uag.Eq):
        return f"(eq {ref.term_text(f.lhs)} {ref.term_text(f.rhs)})"
    if isinstance(f, uag.Rel):
        return f"(rel {f.name} " + " ".join(ref.term_text(t) for t in f.args) + ")"
    if isinstance(f, uag.And):
        return "(and " + " ".join(formula_text(x) for x in f.items) + ")"
    if isinstance(f, uag.Or):
        return "(or " + " ".join(formula_text(x) for x in f.items) + ")"
    if isinstance(f, uag.Not):
        return f"(not {formula_text(f.body)})"
    return "(exists (" + " ".join(f.ys) + ") " + formula_text(f.body) + ")"


def nielsen(g, rng, steps=12):
    """A seeded automorphism of the free group on (x, y), acting on points."""
    mul, inv = g.tables["mul"], g.tables["inv"]
    moves = [rng.randrange(4) for _ in range(steps)]

    def image(p):
        a, b = p
        for m in moves:
            if m == 0:
                a, b = b, a
            elif m == 1:
                a = inv[(a,)]
            elif m == 2:
                a = mul[(a, b)]
            else:
                b = mul[(b, a)]
        return (a, b)

    return image


def rename_term(t, names):
    """The term with its variables renamed; the cost of any op is unchanged."""
    args = getattr(t, "args", None)
    if args is None:
        return uag.var(names.get(t.name, t.name))
    return uag.app(t.op, *[rename_term(a, names) for a in args])


def rename_pair(p, names):
    return (rename_term(p[0], names), rename_term(p[1], names))


def rename_formula(f, names):
    if isinstance(f, uag.Eq):
        return uag.Eq(*rename_pair((f.lhs, f.rhs), names))
    if isinstance(f, uag.Rel):
        return uag.Rel(f.name, tuple(rename_term(t, names) for t in f.args))
    if isinstance(f, (uag.And, uag.Or)):
        return type(f)(tuple(rename_formula(x, names) for x in f.items))
    if isinstance(f, uag.Not):
        return uag.Not(rename_formula(f.body, names))
    return uag.Exists(tuple(names.get(y, y) for y in f.ys), rename_formula(f.body, names))


def seeded_renaming(rng, names):
    image = list(names)
    rng.shuffle(image)
    return dict(zip(names, image))


def ground_term(rng, sig, depth):
    nullary = [op for op in sig.ops if op.arity == 0]
    compound = [op for op in sig.ops if op.arity > 0]
    if depth <= 0 or rng.random() < 0.35:
        return uag.app(nullary[rng.randrange(len(nullary))].name)
    op = compound[rng.randrange(len(compound))]
    return uag.app(op.name, *[ground_term(rng, sig, depth - 1) for _ in op.args])


def deep_ground_term(depth):
    t = uag.app("e")
    for _ in range(depth):
        t = uag.app("inv", t)
    return t


def group_contexts():
    return {
        n: uag.VarContext(GROUP_SIG, [(v, "g") for v in "xyz"[:n]]) for n in (1, 2, 3)
    }


# ---------------------------------------------------------------- canon


def canon_points(a) -> str:
    return repr(a.points())


def canon_verdict(v) -> str:
    if isinstance(v, uag.NotEquivalent):
        eqs = [(ref.term_text(a), ref.term_text(b)) for a, b in v.equations]
        pair = (ref.term_text(v.pair[0]), ref.term_text(v.pair[1]))
        return f"NotEquivalent({eqs},{pair},{v.holds_in},{v.fails_in},{v.notice})"
    return repr(v)


def canon_clause(c) -> str:
    def ps(pairs):
        return [(ref.term_text(a), ref.term_text(b)) for a, b in pairs]

    cons = None if c.cons is None else ps([c.cons])
    return f"{c.kind}:{cons}:{ps(c.pos)}:{ps(c.neg)}:{ps(c.ante)}"


def canon_coordinate(ca) -> str:
    return repr((ca.algebra.sizes, sorted(ca.vectors[0])))


def canon_report(r) -> str:
    return repr((r.agrees, r.meet_agrees, r.image_sizes, r.quotient_sizes, r.hom_count))


# ---------------------------------------------------------------- checks

_spaces: dict = {}


def group_space(g, n):
    key = (g.name, n)
    if key not in _spaces:
        _spaces[key] = ref.GroupSpace(g, n)
    return _spaces[key]


def check_closed_sets(g, n):
    def check(result):
        space = group_space(g, n)
        masks = [space.mask(a.points()) for a in result]
        if len(set(masks)) != len(masks):
            return "closed set yielded twice"
        if set(masks) != space.closed_sets():
            return f"{len(masks)} closed sets, reference has {len(space.closed_sets())}"
        return None

    return check


def check_all_subsets(npoints):
    # over a finite field every function is a polynomial, so every subset is closed
    def check(result):
        masks = {frozenset(a.points()) for a in result}
        if len(masks) != len(result) or len(result) != 1 << npoints:
            return f"{len(result)} closed sets, a field gives {1 << npoints}"
        return None

    return check


def check_closure(g, points):
    def check(result):
        space = group_space(g, len(points[0]))
        want = space.closure(space.mask(points))
        if space.mask(result.points()) != want:
            return "closure differs from the zero-set reference"
        return None

    return check


def check_kernel(g, ctx, points, probes, kernel_of):
    def check(result):
        k = kernel_of(result)
        for a, b in probes:
            want = all(
                ref.o_eval(a, ref.o_env(ctx, p), g.tables) == ref.o_eval(b, ref.o_env(ctx, p), g.tables)
                for p in points
            )
            if k.contains((a, b)) != want:
                return f"kernel membership of {ref.term_text(a)} = {ref.term_text(b)} is wrong"
        return None

    return check


def check_equiv(expect_equivalent, by_name, ctx):
    def check(v):
        if isinstance(v, uag.Equivalent) != expect_equivalent:
            return f"verdict {type(v).__name__}, expected equivalent={expect_equivalent}"
        if isinstance(v, uag.NotEquivalent):
            eqs = list(v.equations)
            holds, fails = by_name[v.holds_in], by_name[v.fails_in]
            if not ref.o_closure_member(holds, ctx, eqs, v.pair):
                return "witness pair is not in the closure where it should hold"
            if ref.o_closure_member(fails, ctx, eqs, v.pair):
                return "witness pair is in the closure where it should fail"
            k_holds = uag.closure_pairs(uag.GeoContext(holds, ctx), eqs)
            k_fails = uag.closure_pairs(uag.GeoContext(fails, ctx), eqs)
            if not k_holds.contains(v.pair) or k_fails.contains(v.pair):
                return "witness fails closure_pairs re-verification"
        return None

    return check


def check_report(rep):
    if not (rep.agrees and rep.meet_agrees):
        return f"two routes disagree: agrees={rep.agrees} meet_agrees={rep.meet_agrees}"
    return None


# ---------------------------------------------------------------- closure-sweep


def s3_bases(s3, base):
    """Fixed S3 point sets of sizes 2..8 whose coordinate algebras stay small."""
    points = [(a, b) for a in range(6) for b in range(6)]
    limits = {2: 36, 3: 36, 4: 36, 5: 36, 6: 36, 7: 36, 8: 108}
    out = []
    for n in (2, 2, 3, 3, 4, 5, 6, 7, 8, 2, 3, 4, 5):
        best = None
        for _ in range(400):
            pts = base.sample(points, n)
            size = ref.cayley_size(s3, [tuple(p[0] for p in pts), tuple(p[1] for p in pts)])
            if size <= limits[n]:
                best = pts
                break
            if best is None or size < best[1]:
                best = (pts, size)
        out.append(best if isinstance(best, list) else best[0])
    return out


def closure_sweep(seed):
    rng, base = random.Random(seed), random.Random(BASE_SEED)
    ctxs = group_contexts()
    c1, c2, c3 = ctxs[1], ctxs[2], ctxs[3]
    z2, z3, z4, z5 = (uag.cyclic_group(n) for n in (2, 3, 4, 5))
    v4, s3 = uag.klein_four(), uag.symmetric_group_3()
    ops = []

    for g, n in ((z3, 2), (z4, 2), (z5, 2), (v4, 2), (z2, 3)):
        gctx = uag.GeoContext(g, ctxs[n])
        ops.append(
            Op(
                "closed-sets",
                f"{g.name} over {n} variables",
                lambda gctx=gctx: list(uag.all_closed_point_sets(gctx)),
                check_closed_sets(g, n),
                lambda r: ";".join(canon_points(a) for a in r),
            )
        )
    r3 = uag.mod_ring(3)
    rctx = uag.VarContext(RING_SIG, [("x", "r"), ("y", "r")])
    gr3 = uag.GeoContext(r3, rctx)
    ops.append(
        Op(
            "closed-sets",
            "R3 over 2 variables, cap 2**16",
            lambda: list(uag.all_closed_point_sets(gr3, cap=2**16)),
            check_all_subsets(9),
            lambda r: ";".join(canon_points(a) for a in r),
            expect_fail=True,
        )
    )

    z2xz4 = uag.product([z2, z4], name="Z2xZ4")
    by_name = {g.name: g for g in (z2, z3, z4, v4, z2xz4)}
    for g, h, ctx, same in (
        (z2, v4, c2, True),
        (z2, z4, c2, False),
        (z3, z3, c2, True),
        (z2, z4, c1, False),
        (z2, v4, c1, True),
        (z4, z2xz4, c1, True),
        (v4, z4, c1, False),
    ):
        if rng.random() < 0.5:
            g, h = h, g
        ops.append(
            Op(
                "equiv",
                f"exact {g.name}/{h.name} over {len(ctx)} variables",
                lambda g=g, h=h, ctx=ctx: uag.geometric_equiv(g, h, ctx, mode="exact", max_points=100),
                check_equiv(same, by_name, ctx),
                canon_verdict,
            )
        )

    def point_set_ops(g, gctx, pts):
        image = nielsen(g, rng)
        pts = [image(p) for p in pts]
        a = uag.PointSet.of_points(gctx, pts)
        rows = [tuple(p[0] for p in pts), tuple(p[1] for p in pts)]
        ops.append(
            Op(
                "coordinate-algebra",
                f"{g.name}, {len(pts)} points",
                lambda a=a: uag.coordinate_algebra(a),
                lambda ca, rows=rows: None
                if ca.algebra.sizes[0] == ref.cayley_size(g, rows)
                else "coordinate algebra size differs from the subgroup order",
                canon_coordinate,
            )
        )
        ops.append(
            Op(
                "closure-variety",
                f"{g.name}, {len(pts)} points",
                lambda a=a: uag.closure_variety(a),
                check_closure(g, pts),
                canon_points,
            )
        )

    gs3 = uag.GeoContext(s3, c2)
    for pts in s3_bases(s3, base):
        point_set_ops(s3, gs3, pts)
    for g in (z4, z5, v4) * 2:
        gctx = uag.GeoContext(g, c2)
        for n in (2, 3, 4, 5, 6):
            point_set_ops(g, gctx, base.sample(list(gctx.points), n))

    sctx = uag.VarContext(SEMILATTICE_SIG, [("x", "s"), ("y", "s")])
    chain2 = uag.chain_semilattice(2)
    cases = ((z2, c2), (z3, c2), (z4, c2), (chain2, sctx)) + ((z2, c2), (z3, c2), (chain2, sctx)) * 2
    for g, ctx in cases:
        gctx = uag.GeoContext(g, ctx)
        for k in (1, 2, 3, 4):
            pts = [tuple(base.randrange(g.sizes[0]) for _ in range(2)) for _ in range(k)]
            if g is chain2:
                if rng.random() < 0.5:
                    pts = [(b, a) for a, b in pts]
            else:
                image = nielsen(g, rng)
                pts = [image(p) for p in pts]
            ops.append(
                Op(
                    "nullsatz",
                    f"{g.name}, kernel of {k} points",
                    lambda g=g, ctx=ctx, gctx=gctx, pts=pts: uag.nullstellensatz_check(
                        uag.meet_kernels([uag.kernel_of_point(p, g, ctx) for p in pts]), gctx
                    ),
                    check_report,
                    canon_report,
                )
            )

    gz4 = uag.GeoContext(z4, c2)
    image = nielsen(z4, rng)
    pts = [image(p) for p in [(1, 2), (3, 1), (2, 2), (0, 3)]]
    probes = [rand_pair(rng, GROUP_SIG, ("x", "y"), 3) for _ in range(30)]
    ops.append(
        Op(
            "meet-kernels",
            "Z4, 4 points (product route)",
            lambda: uag.meet_kernels([uag.kernel_of_point(p, z4, c2) for p in pts]),
            check_kernel(z4, c2, pts, probes, lambda k: k),
            lambda k: repr((k.target.sizes, k.assignment)),
        )
    )
    a4 = uag.PointSet.of_points(gz4, pts)
    ops.append(
        Op(
            "coordinate-algebra",
            "Z4, 4 points (same kernel)",
            lambda: uag.coordinate_algebra(a4),
            check_kernel(z4, c2, pts, probes, lambda ca: ca.kernel()),
            canon_coordinate,
        )
    )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- derive-fo


def derive_fo(seed):
    rng = random.Random(seed)
    ctxs = group_contexts()
    c2 = ctxs[2]
    names = ("x", "y")
    z2, z3 = uag.cyclic_group(2), uag.cyclic_group(3)
    v4, s3 = uag.klein_four(), uag.symmetric_group_3()
    pool = [z2, z3, v4, s3]
    ops = []

    base = random.Random(BASE_SEED)
    renaming = seeded_renaming(rng, names)
    bounds = uag.SaturationBounds(depth=2, width=1, iterations=2, budget=1500)
    for kind in ("identity", "pseudo", "universal", "quasi"):
        for _ in range(2):
            p1, p2, p3 = (rename_pair(rand_pair(base, GROUP_SIG, names, 2), renaming) for _ in range(3))
            if kind == "identity":
                seeds = [uag.identity(p1)]
            elif kind == "pseudo":
                seeds = [uag.pseudo([p1, p2])]
            elif kind == "universal":
                seeds = [uag.universal([p1], [p2])]
            else:
                seeds = [uag.quasi([p1], p2), uag.quasi([], p3)]

            def run(kind=kind, seeds=seeds):
                res = uag.derive_closure(kind, seeds, GROUP_SIG, c2, bounds)
                return res, uag.soundness_check(res.clauses, seeds, pool, c2)

            def check(out, seeds=seeds):
                res, violations = out
                if violations:
                    return f"{len(violations)} unsound derived clauses"
                vs = ref.clause_names(list(seeds) + list(res.clauses))
                for g in pool:
                    if all(ref.clause_holds(g, c, vs) for c in seeds):
                        for c in res.clauses[:25]:
                            if not ref.clause_holds(g, c, vs):
                                return f"derived clause fails in {g.name}"
                return None

            ops.append(
                Op(
                    "derive",
                    f"{kind}, {len(seeds)} seed clauses, budget {bounds.budget}",
                    run,
                    check,
                    lambda out: repr(
                        (out[0].exhausted, out[0].rounds, [canon_clause(c) for c in out[0].clauses])
                    ),
                )
            )

    for i in range(150):
        sig = (GROUP_SIG, RING_SIG)[i % 2]
        terms = [ground_term(rng, sig, rng.randint(0, 4)) for _ in range(rng.randint(4, 12))]
        pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(rng.randint(1, 6))]
        probes = [(a, b) for a in terms for b in terms]

        def run(pairs=pairs, terms=terms, probes=probes):
            gc = uag.ground_closure(pairs, terms)
            return [gc.contains(pair) for pair in probes]

        def check(got, pairs=pairs, terms=terms, probes=probes):
            _, label, _ = ref.o_ground_closure_classes(pairs, terms)
            want = [label[id(a)] == label[id(b)] for a, b in probes]
            return None if got == want else "ground closure differs from the relabel oracle"

        ops.append(
            Op(
                "ground-closure",
                f"{len(terms)} terms, {len(pairs)} pairs",
                run,
                check,
                lambda got: "".join("1" if b else "0" for b in got),
            )
        )

    deep = deep_ground_term(DEEP)
    e = uag.app("e")
    ops.append(
        Op(
            "ground-closure",
            f"one pair, a term {DEEP} levels deep",
            lambda: uag.ground_closure([(deep, e)]).contains((deep, e)),
            lambda got: None if got is True else "deep pair not merged",
            expect_fail=True,
        )
    )

    rel_sig = uag.RelSignature(GROUP_SIG, [("P", ["g"])])
    rows = [(x,) for x in rng.sample(range(6), 2)]
    model = uag.Model(s3, rel_sig, {"P": rows}, name="MS3")
    for n in (2, 3):
        gctx = uag.GeoContext(s3, ctxs[n])
        vs = tuple("xyz"[:n])

        def oracle(fs, n=n, gctx=gctx):
            want = None
            for f in fs:
                got = set(ref.o_eval_formula(model, f, ctxs[n], gctx.points))
                want = got if want is None else want & got
            return sorted(want)

        # two variables: many cheap seeded formulas; three variables: fixed base
        # formulas under a seeded renaming, since their cost is heavy-tailed
        source = rng if n == 2 else base
        renaming = {} if n == 2 else seeded_renaming(rng, vs)
        for _ in range(90 if n == 2 else 35):
            f = rename_formula(rand_formula(source, GROUP_SIG, vs, "P", 3), renaming)
            ops.append(
                Op(
                    "eval-formula",
                    f"S3, {n} variables",
                    lambda f=f, gctx=gctx: uag.eval_formula(model, f, gctx),
                    lambda a, f=f, oracle=oracle: None
                    if a.points() == oracle([f])
                    else "formula value differs from the definitional oracle",
                    canon_points,
                )
            )
        for _ in range(30 if n == 2 else 15):
            fs = [rename_formula(rand_formula(source, GROUP_SIG, vs, "P", 2), renaming) for _ in range(source.randint(2, 3))]
            ops.append(
                Op(
                    "fo-variety",
                    f"S3, {n} variables, {len(fs)} formulas",
                    lambda fs=fs, gctx=gctx: uag.fo_variety(model, fs, gctx),
                    lambda a, fs=fs, oracle=oracle: None
                    if a.points() == oracle(fs)
                    else "first-order variety differs from the definitional oracle",
                    canon_points,
                )
            )

    g3 = uag.GeoContext(z2, ctxs[3])
    x, y = uag.var("x"), uag.var("y")
    subs = [
        uag.Substitution({}),
        uag.Substitution({"x": y, "y": x}),
        uag.Substitution({"x": y}),
        uag.Substitution({"x": uag.app("mul", x, y)}),
    ]
    by_size = {k: [m for m in range(256) if bin(m).count("1") == k] for k in range(9)}
    for _ in range(2):
        masks = [rng.choice(by_size[k]) for k in (0, 1, 2, 3, 4, 4, 4, 5, 6, 7, 8, 3)]
        values = [uag.PointSet(g3, [i for i in range(8) if m >> i & 1]) for m in masks]
        ops.append(
            Op(
                "halmos",
                "Z2 over 3 variables, 12 value sets, 4 substitutions",
                lambda values=values: uag.halmos_axiom_violations(g3, values, subs),
                lambda out: None if out == [] else f"{len(out)} Halmos axiom violations",
            )
        )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- cli-mix


def cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = uag.cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def cli_canon(r) -> str:
    return f"{r[0]}\n{r[1]}"


def _json(r):
    return json.loads(r[1])


def expect(code, verify=None):
    """Check the exit code, then the JSON payload against the reference."""

    def check(r):
        if r[0] != code:
            return f"exit {r[0]}, expected {code}: {r[2].strip()[:120]}"
        if code == 2:
            return None if r[2].startswith("error:") else "exit 2 without an error line"
        return verify(_json(r)) if verify else None

    return check


def _points_equal(got, want) -> bool:
    return [tuple(p) for p in got] == sorted(want)


def group_workspace(rng, algs, ctx2):
    """A seeded workspace over the builtin group signature, with its objects.

    The clauses, which feed the costlier derive calls, are fixed base clauses
    under a seeded renaming of x and y; everything else is drawn from the seed.
    """
    names = ("x", "y")
    base, renaming = random.Random(BASE_SEED), seeded_renaming(rng, names)
    lines, objs = [], {"pairs": {}, "formulas": {}, "clauses": {}, "models": {}}
    for i in range(8):
        pairs = [rand_pair(rng, GROUP_SIG, names, 2) for _ in range(rng.randint(1, 3))]
        objs["pairs"][f"P{i}"] = pairs
    objs["pairs"]["Q0"] = [(uag.app("mul", uag.var("x"), uag.var("y")), uag.app("mul", uag.var("y"), uag.var("x")))]
    objs["pairs"]["Q1"] = [(uag.app("mul", uag.var("x"), uag.var("x")), uag.app("e"))]
    objs["pairs"]["Q2"] = [rand_pair(rng, GROUP_SIG, names, 2)]
    objs["pairs"]["D"] = [(uag.var("x"), uag.var("y"))]
    objs["pairs"]["E"] = []
    objs["pairs"]["PT"] = [(uag.var("x"), uag.app("e")), (uag.var("y"), uag.app("e"))]
    for name, pairs in objs["pairs"].items():
        body = " ".join(f"({ref.term_text(a)} {ref.term_text(b)})" for a, b in pairs)
        lines.append(f"(pairs {name} {body})".replace(" )", ")"))
    lines.append("(rel-sig (P g))")
    rel_sig = uag.RelSignature(GROUP_SIG, [("P", ["g"])])
    for mname, g in (("MS3", algs["S3"]), ("MZ4", algs["Z4"])):
        rows = sorted(rng.sample(range(g.sizes[0]), 2))
        objs["models"][mname] = uag.Model(g, rel_sig, {"P": [(r,) for r in rows]})
        lines.append(f"(model {mname} {g.name} (rel P " + " ".join(f"({r})" for r in rows) + "))")
    for i in range(10):
        f = rand_formula(rng, GROUP_SIG, names, "P", 2)
        objs["formulas"][f"F{i}"] = f
        lines.append(f"(formula F{i} {formula_text(f)})")
    kinds = ("identity", "pseudo", "universal", "quasi")
    for i in range(8):
        kind = kinds[i % 4]
        p1, p2 = (rename_pair(rand_pair(base, GROUP_SIG, names, 1), renaming) for _ in range(2))

        def pt(p):
            return f"({ref.term_text(p[0])} {ref.term_text(p[1])})"

        if kind == "identity":
            c, body = uag.identity(p1), pt(p1)
        elif kind == "pseudo":
            c, body = uag.pseudo([p1, p2]), f"{pt(p1)} {pt(p2)}"
        elif kind == "universal":
            c, body = uag.universal([p1], [p2]), f"(pos {pt(p1)}) (neg {pt(p2)})"
        else:
            c = uag.quasi([p1], p2)
            body = f"(ante {pt(p1)}) (cons {ref.term_text(p2[0])} {ref.term_text(p2[1])})"
        objs["clauses"][f"K{i}"] = c
        lines.append(f"(clause K{i} {kind} {body})")
    return "\n".join(lines) + "\n", objs


def cli_mix(seed, workdir):
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    ctxs = group_contexts()
    c2 = ctxs[2]
    algs = {g.name: g for g in [uag.cyclic_group(n) for n in (2, 3, 4, 5, 6)]}
    algs["V4"], algs["S3"] = uag.klein_four(), uag.symmetric_group_3()
    small = ["Z2", "Z3", "Z4", "Z5", "Z6", "V4"]
    text, objs = group_workspace(rng, algs, c2)

    def write(name, body):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
        return path

    ws = write("group.sx", text)
    bad = write("bad.sx", "(pairs B ((mul x y) e)\n")
    deep = write("deep.sx", "(pairs DEEP (" + "(mul " * DEEP + "x" + " y)" * DEEP + " e))\n")
    g = ["--builtin", "group", "-f", ws, "--format", "json"]
    ops = []

    def add(kind, summary, argv, check, expect_fail=False):
        ops.append(Op(kind, summary, lambda argv=argv: cli_call(argv), check, cli_canon, expect_fail))

    def rand_point(alg, n=2):
        return tuple(rng.randrange(algs[alg].sizes[0]) for _ in range(n))

    def ptext(p):
        return ",".join(map(str, p))

    want_names = {k: sorted(v) for k, v in objs.items()}
    for _ in range(4):
        add(
            "parse",
            "group workspace",
            ["parse"] + g,
            expect(0, lambda d: None if d["pairs"] == want_names["pairs"] and d["formulas"] == want_names["formulas"] and d["clauses"] == want_names["clauses"] else "workspace summary differs"),
        )
    add("parse", f"pairs with a term {DEEP} levels deep", ["parse", "--builtin", "group", "-f", deep], expect(0), expect_fail=True)
    add("parse", "unbalanced workspace", ["parse", "--builtin", "group", "-f", bad], expect(2))
    add("variety", "unknown algebra", ["variety", "-a", "Z7", "-c", "C2", "-p", "P0"] + g, expect(2))
    add("variety", "S3 over 3 variables, cap 100", ["variety", "-a", "S3", "-c", "C3", "-p", "P0", "--cap", "100"] + g, expect(2))

    for _ in range(20):
        a = rng.choice(small + ["S3"])
        t = rand_term(rng, GROUP_SIG, ("x", "y"), 3)
        p = rand_point(a)
        want = ref.o_eval(t, ref.o_env(c2, p), algs[a].tables)
        add("eval", f"{a}, depth-3 term", ["eval", "-a", a, "-c", "C2", "--term", ref.term_text(t), "--point", ptext(p)] + g,
            expect(0, lambda d, want=want: None if d["value"] == want else "value differs"))
    for _ in range(15):
        a, pname = rng.choice(small + ["S3"]), f"P{rng.randrange(8)}"
        want = ref.o_variety(algs[a], c2, objs["pairs"][pname])
        add("variety", f"{a}, {pname}", ["variety", "-a", a, "-c", "C2", "-p", pname] + g,
            expect(0, lambda d, want=want: None if _points_equal(d["points"], want) else "points differ"))
    for _ in range(15):
        # closures print a presentation with one pair per table cell, so they stay
        # on the algebras whose coordinate algebras are small whatever the seed
        a, pname = rng.choice(["Z2", "Z3", "Z4", "V4"]), f"P{rng.randrange(8)}"
        q = rand_pair(rng, GROUP_SIG, ("x", "y"), 2)
        member = ref.o_closure_member(algs[a], c2, objs["pairs"][pname], q)
        add("closure", f"{a}, {pname}, query", ["closure", "-a", a, "-c", "C2", "-p", pname, "--query", f"({ref.term_text(q[0])} {ref.term_text(q[1])})"] + g,
            expect(0 if member else 1, lambda d, member=member: None if d["member"] == member else "membership differs"))
    for _ in range(10):
        a = rng.choice(small + ["S3"])
        p = rand_point(a)

        def verify(d, a=a, p=p):
            space = group_space(algs[a], 2)
            want = space.unmask(space.closure(space.mask([p])))
            return None if _points_equal(d["points"], want) else "point closure differs"

        add("point-closure", a, ["point-closure", "-a", a, "-c", "C2", "--point", ptext(p)] + g, expect(0, verify))
    for _ in range(5):
        a, qname = rng.choice(small + ["S3"]), rng.choice(["Q0", "Q1", "Q2"])

        def verify(d, a=a, qname=qname):
            alg = algs[a]
            want = [p for p in ref.o_points(alg, c2) if ref.identities_hold_on(alg, ref.subgroup(alg, p), objs["pairs"][qname])]
            return None if _points_equal(d["points"], want) else "verbal variety differs"

        add("verbal", f"{a}, {qname}", ["verbal", "-a", a, "-c", "C2", "-p", qname] + g, expect(0, verify))
    for _ in range(8):
        a = rng.choice(small)
        pa, pb = f"P{rng.randrange(8)}", f"P{rng.randrange(8)}"
        sx, sy = (rand_term(rng, GROUP_SIG, ("x", "y"), 2) for _ in range(2))
        alg = algs[a]
        target = set(ref.o_variety(alg, c2, objs["pairs"][pb]))
        ok = all(
            (ref.o_eval(sx, ref.o_env(c2, p), alg.tables), ref.o_eval(sy, ref.o_env(c2, p), alg.tables)) in target
            for p in ref.o_variety(alg, c2, objs["pairs"][pa])
        )
        subst = f"((x {ref.term_text(sx)}) (y {ref.term_text(sy)}))"
        add("morphism", f"{a}, {pa} -> {pb}", ["morphism", "-a", a, "--ctx-a", "C2", "--pairs-a", pa, "--ctx-b", "C2", "--pairs-b", pb, "--subst", subst] + g,
            expect(0 if ok else 1))
    for _ in range(2):
        a = rng.choice(["Z2", "Z3", "V4"])
        add("iso", f"{a}, diagonal vs line", ["iso", "-a", a, "--ctx-a", "C2", "--pairs-a", "D", "--ctx-b", "C1", "--pairs-b", "E"] + g, expect(0))
        add("iso", f"{a}, diagonal vs point", ["iso", "-a", a, "--ctx-a", "C2", "--pairs-a", "D", "--ctx-b", "C2", "--pairs-b", "PT"] + g, expect(1))
    for a, b, same in (("Z2", "Z4", False), ("Z2", "V4", True), ("V4", "Z4", False), ("Z3", "Z3", True)):
        if rng.random() < 0.5:
            a, b = b, a
        add("equiv", f"exact {a}/{b} over 1 variable", ["equiv", "-a", a, "-b", b, "-c", "C1"] + g, expect(0 if same else 1))
    # sampled mode draws its equation sets from --seed; fixed values keep the work
    # of these calls the same for every workload seed
    for i, (a, b) in enumerate((("Z2", "V4"), ("Z3", "Z3"), ("V4", "Z2"), ("Z2", "Z2"))):
        add("equiv", f"sampled {a}/{b} over 2 variables", ["equiv", "-a", a, "-b", b, "-c", "C2", "--mode", "sampled", "--samples", "8", "--seed", str(i)] + g,
            expect(0, lambda d: None if d["verdict"]["verdict"] == "inconclusive" else "equivalent pair separated"))
    for i in (0, 1, 2, 3, 4, 5):
        kname = f"K{i}"
        clause = objs["clauses"][kname]
        pool = [algs[n] for n in ("Z2", "Z3", "V4", "S3")]

        def verify(d, clause=clause):
            bounds = uag.SaturationBounds(depth=2, width=1, iterations=2, budget=300)
            res = uag.derive_closure(clause.kind, [clause], GROUP_SIG, c2, bounds)
            if d["result"]["count"] != len(res.clauses):
                return "derived clause count differs from the library call"
            vs = ref.clause_names([clause] + list(res.clauses))
            for alg in pool:
                if ref.clause_holds(alg, clause, vs):
                    for c in res.clauses[:15]:
                        if not ref.clause_holds(alg, c, vs):
                            return f"derived clause fails in {alg.name}"
            return None

        add("derive", f"{clause.kind}, budget 300", ["derive", "--kind", clause.kind, "--seeds", kname, "-c", "C2", "--depth", "2", "--width", "1", "--iterations", "2", "--budget", "300"] + g, expect(0, verify))
    for _ in range(10):
        a, kname = rng.choice(small + ["S3"]), f"K{rng.randrange(8)}"
        holds = ref.clause_holds(algs[a], objs["clauses"][kname], ["x", "y"])
        add("query", f"{a}, {kname}", ["query", "-a", a, "--clause", kname, "-c", "C2"] + g, expect(0 if holds else 1))
    for _ in range(10):
        mname = rng.choice(["MS3", "MZ4"])
        m = objs["models"][mname]
        fnames = rng.sample(sorted(objs["formulas"]), 2)
        qname = rng.choice(sorted(objs["formulas"]))
        pts = ref.o_points(m.algebra, c2)
        sets = [set(ref.o_eval_formula(m, objs["formulas"][f], c2, pts)) for f in fnames]
        want = sorted(sets[0] & sets[1])
        member = set(want) <= set(ref.o_eval_formula(m, objs["formulas"][qname], c2, pts))
        add("fo-variety", f"{mname}, 2 formulas, closure query", ["fo-variety", "--model", mname, "-c", "C2", "--formulas", ",".join(fnames), "--closure-query", qname] + g,
            expect(0 if member else 1, lambda d, want=want: None if _points_equal(d["points"], want) else "first-order variety differs"))
    z4 = algs["Z4"]
    image = nielsen(z4, rng)
    for a, p in (("Z2", rand_point("Z2")), ("Z3", rand_point("Z3")), ("Z4", image((1, 0)))):
        add("nullsatz", f"{a}, point kernel", ["nullsatz", "--image", a, "--assignment", ptext(p), "--target", a, "-c", "C2"] + g,
            expect(0, lambda d: check_report_json(d["report"])))
    for suite, trials in (("galois", 1), ("halmos", 1), ("rules", 1), ("fundamental", 2), ("nullsatz", 1)):
        add("check", f"{suite}, {trials} trials", ["check", "--suite", suite, "--trials", str(trials), "--seed", "0", "--format", "json"],
            expect(0, lambda d: None if d["ok"] else "battery failed"))

    ring = ["--builtin", "ring", "--format", "json"]
    rctx = uag.VarContext(RING_SIG, [("x", "r"), ("y", "r")])
    rings = {r.name: r for r in (uag.mod_ring(2), uag.mod_ring(3), uag.mod_ring(5))}
    semi = ["--builtin", "semilattice", "--format", "json"]
    sctx = uag.VarContext(SEMILATTICE_SIG, [("x", "s"), ("y", "s")])
    semis = {s.name: s for s in (uag.chain_semilattice(2), uag.chain_semilattice(3), uag.vee_semilattice())}
    for lib, flags, sig, ctx, lib_algs in (("ring", ring, RING_SIG, rctx, rings), ("semilattice", semi, SEMILATTICE_SIG, sctx, semis)):
        for _ in range(4):
            a = rng.choice(sorted(lib_algs))
            q = rand_pair(rng, sig, ("x", "y"), 2)
            qt = f"({ref.term_text(q[0])} {ref.term_text(q[1])})"
            want = ref.o_variety(lib_algs[a], ctx, [q])
            ops_file = write(f"{lib}{len(ops)}.sx", f"(pairs R {qt})\n")
            add("variety", f"{lib} {a}", ["variety", "-a", a, "-c", "C2", "-p", "R", "-f", ops_file] + flags,
                expect(0, lambda d, want=want: None if _points_equal(d["points"], want) else "points differ"))
            if lib == "ring":
                # ring coordinate algebras over R3/R5 can run for minutes before
                # CapExceeded (caps bound stored members, not work)
                a = "R2"
            q2 = rand_pair(rng, sig, ("x", "y"), 2)
            member = ref.o_closure_member(lib_algs[a], ctx, [q], q2)
            add("closure", f"{lib} {a}, query", ["closure", "-a", a, "-c", "C2", "-p", "R", "-f", ops_file, "--query", f"({ref.term_text(q2[0])} {ref.term_text(q2[1])})"] + flags,
                expect(0 if member else 1, lambda d, member=member: None if d["member"] == member else "membership differs"))
    rng.shuffle(ops)
    return ops


def check_report_json(rep):
    if not (rep["agrees"] and rep["meet_agrees"]):
        return "two routes disagree"
    return None


WORKLOADS = {
    "cli-mix": lambda seed, workdir: cli_mix(seed, workdir),
    "closure-sweep": lambda seed, workdir: closure_sweep(seed),
    "derive-fo": lambda seed, workdir: derive_fo(seed),
}
