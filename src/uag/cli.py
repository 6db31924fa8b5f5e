"""Command line front end.

Verbs operate on named objects from workspace files (see sexpr) or from the
built-in libraries (--builtin group|semilattice|ring). Output is text or
JSON; JSON output is byte-identical across runs for equal inputs and seeds.

Exit codes: 0 success (and positive verdicts), 1 definite negative verdict
or failed check, 2 usage, parse, or capacity errors.
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
from functools import partial
from typing import Optional

from .algebras import (
    FiniteAlgebra,
    GROUP_SIG,
    RING_SIG,
    SEMILATTICE_SIG,
    chain_semilattice,
    cyclic_group,
    eval_columns,
    klein_four,
    mod_ring,
    subalgebra_generated,
    symmetric_group_3,
    vee_semilattice,
)
from .config import CapExceeded
from .congruences import KernelCongruence, PairSet, kernel_of_point
from .geometry import (
    Equivalent,
    Inconclusive,
    NotEquivalent,
    candidate_pairs,
    closure_variety,
    congruence_of,
    geometric_equiv,
    morphism_check,
    nullstellensatz_check,
    point_closure,
    presentation_pairs,
    variety_iso,
    variety_of,
    verbal_variety,
)
from .logic import (
    Model,
    RelSignature,
    fo_closure_member,
    fo_variety,
    fundamental_check,
    halmos_axiom_violations,
    is_open,
    random_formula,
)
from .reports import emit
from .rules import KINDS, SaturationBounds, derive_closure, holds_clause, soundness_check
from .sexpr import (
    SexprError,
    Workspace,
    load_workspace,
    parse_inline_pair,
    parse_inline_subst,
    parse_inline_term,
)
from .spaces import GeoContext, PointSet
from .terms import Substitution, VarContext, app, render, var


# each library's signature and the builders of its stock algebras, by name
STOCK = {
    "group": (
        GROUP_SIG,
        {
            **{f"Z{n}": partial(cyclic_group, n) for n in (2, 3, 4, 5, 6)},
            "V4": klein_four,
            "S3": symmetric_group_3,
        },
    ),
    "semilattice": (
        SEMILATTICE_SIG,
        {"C2": partial(chain_semilattice, 2), "C3": partial(chain_semilattice, 3), "Vee": vee_semilattice},
    ),
    "ring": (RING_SIG, {f"R{n}": partial(mod_ring, n) for n in (2, 3, 5)}),
}


def builtin_workspace(kind: str) -> Workspace:
    if kind not in STOCK:
        raise SexprError(f"unknown builtin library {kind!r}")
    sig, builders = STOCK[kind]
    ws = Workspace()
    ws.sorts = list(sig.sorts)
    ws.op_decls = [
        (op.name, tuple(sig.sorts[i] for i in op.args), sig.sorts[op.result]) for op in sig.ops
    ]
    ws._sig = sig
    ws.algebras = {name: build() for name, build in builders.items()}
    s0 = sig.sorts[0]
    ws.contexts["C1"] = VarContext(sig, [("x", s0)])
    ws.contexts["C2"] = VarContext(sig, [("x", s0), ("y", s0)])
    ws.contexts["C3"] = VarContext(sig, [("x", s0), ("y", s0), ("z", s0)])
    return ws


def build_ws(args) -> Workspace:
    ws = builtin_workspace(args.builtin) if args.builtin else Workspace()
    for path in args.file or ():
        with open(path, "r", encoding="utf-8") as fh:
            src = fh.read()
        try:
            load_workspace(src, ws)
        except SexprError as e:
            raise SexprError(f"{path}:{e}") from e
    return ws


def parse_point(text: str, ctx: VarContext, g: FiniteAlgebra):
    """The point a text names: comma-separated integers, each decimal digits
    with an optional leading ``-``; spaces are allowed around an entry."""
    entries = [p.strip() for p in text.split(",")]
    if not all(p.removeprefix("-").isdecimal() for p in entries):
        raise SexprError(f"point values must be integers: {text!r}")
    vals = tuple(map(int, entries))
    if len(vals) != len(ctx):
        raise SexprError(f"point needs {len(ctx)} values, got {len(vals)}")
    for v, (name, s) in zip(vals, ctx.vars):
        if not 0 <= v < g.sizes[s]:
            raise SexprError(f"value {v} for {name} out of range for {g.name}")
    return vals


def _out(args, payload: dict) -> None:
    sys.stdout.write(emit(payload, args.format))


def cmd_parse(args) -> int:
    ws = build_ws(args)
    payload = {
        "verb": "parse",
        "sorts": list(ws.sorts),
        "ops": [name for name, _, _ in ws.op_decls],
        "algebras": sorted(ws.algebras),
        "contexts": sorted(ws.contexts),
        "pairs": sorted(ws.pairsets),
        "formulas": sorted(ws.formulas),
        "models": sorted(ws.models),
        "clauses": sorted(ws.clauses),
    }
    _out(args, payload)
    return 0


def cmd_eval(args) -> int:
    ws = build_ws(args)
    g = ws.algebra(args.algebra)
    ctx = ws.context(args.context)
    t = parse_inline_term(args.term, ws.sig())
    p = parse_point(args.point, ctx, g)
    [(srt, [value])] = eval_columns([t], [p], g, ctx)
    payload = {
        "verb": "eval",
        "algebra": g.name,
        "term": render(t),
        "point": list(p),
        "value": value,
        "sort": ws.sig().sorts[srt],
    }
    _out(args, payload)
    return 0


def cmd_variety(args) -> int:
    ws = build_ws(args)
    g = ws.algebra(args.algebra)
    gctx = GeoContext(g, ws.context(args.context), args.cap)
    a = variety_of(gctx, ws.pairs(args.pairs))
    _out(args, {"verb": "variety", "algebra": g.name, "count": len(a), "points": a})
    return 0


def cmd_closure(args) -> int:
    ws = build_ws(args)
    g = ws.algebra(args.algebra)
    gctx = GeoContext(g, ws.context(args.context), args.cap)
    a = variety_of(gctx, ws.pairs(args.pairs))
    k = congruence_of(a, args.cap)
    payload = {
        "verb": "closure",
        "algebra": g.name,
        "count": len(a),
        "presentation": presentation_pairs(k),
    }
    code = 0
    if args.query:
        qpair = parse_inline_pair(args.query, ws.sig())
        member = k.contains(qpair)
        payload["query"] = [render(qpair[0]), render(qpair[1])]
        payload["member"] = member
        code = 0 if member else 1
    _out(args, payload)
    return code


def cmd_nullsatz(args) -> int:
    ws = build_ws(args)
    h = ws.algebra(args.image)
    g = ws.algebra(args.target)
    ctx = ws.context(args.context)
    p = parse_point(args.assignment, ctx, h)
    k = KernelCongruence(h, ctx, p)
    rep = nullstellensatz_check(k, GeoContext(g, ctx, args.cap), args.cap)
    _out(args, {"verb": "nullsatz", "image": h.name, "target": g.name, "report": rep})
    return 0 if rep.agrees and rep.meet_agrees else 1


def cmd_point_closure(args) -> int:
    ws = build_ws(args)
    g = ws.algebra(args.algebra)
    ctx = ws.context(args.context)
    gctx = GeoContext(g, ctx, args.cap)
    p = parse_point(args.point, ctx, g)
    pc = point_closure(gctx, p)
    _out(
        args,
        {"verb": "point-closure", "algebra": g.name, "point": list(p), "count": len(pc), "points": pc},
    )
    return 0


def cmd_verbal(args) -> int:
    ws = build_ws(args)
    g = ws.algebra(args.algebra)
    gctx = GeoContext(g, ws.context(args.context), args.cap)
    ictx = ws.context(args.ictx) if args.ictx else None
    v = verbal_variety(gctx, ws.pairs(args.pairs), ictx, args.cap)
    _out(args, {"verb": "verbal", "algebra": g.name, "count": len(v), "points": v})
    return 0


def cmd_morphism(args) -> int:
    ws = build_ws(args)
    g = ws.algebra(args.algebra)
    a = variety_of(GeoContext(g, ws.context(args.ctx_a), args.cap), ws.pairs(args.pairs_a))
    b = variety_of(GeoContext(g, ws.context(args.ctx_b), args.cap), ws.pairs(args.pairs_b))
    s = parse_inline_subst(args.subst, ws.sig())
    rep = morphism_check(s, a, b)
    _out(args, {"verb": "morphism", "algebra": g.name, "subst": s, "report": rep})
    return 0 if rep.ok else 1


def cmd_iso(args) -> int:
    ws = build_ws(args)
    g = ws.algebra(args.algebra)
    a = variety_of(GeoContext(g, ws.context(args.ctx_a), args.cap), ws.pairs(args.pairs_a))
    b = variety_of(GeoContext(g, ws.context(args.ctx_b), args.cap), ws.pairs(args.pairs_b))
    iso = variety_iso(a, b, args.cap, bound=args.bound)
    if iso is None:
        _out(args, {"verb": "iso", "algebra": g.name, "found": False})
        return 1
    _out(args, {"verb": "iso", "algebra": g.name, "found": True, "iso": iso})
    return 0


def cmd_equiv(args) -> int:
    ws = build_ws(args)
    g = ws.algebra(args.algebra)
    h = ws.algebra(args.other)
    ctx = ws.context(args.context)
    verdict = geometric_equiv(g, h, ctx, cap=args.cap)
    if args.mode == "sampled" and isinstance(verdict, Equivalent):
        # sampled mode never claims equivalence; it stays for existing callers
        verdict = Inconclusive(samples=args.samples)
    _out(
        args,
        {"verb": "equiv", "left": g.name, "right": h.name, "seed": args.seed, "verdict": verdict},
    )
    return 1 if isinstance(verdict, NotEquivalent) else 0


def cmd_derive(args) -> int:
    ws = build_ws(args)
    seeds = []
    if args.seeds:
        for name in args.seeds.split(","):
            seeds.append(ws.clause(name.strip()))
    if args.seed_pairs:
        for name in args.seed_pairs.split(","):
            seeds.extend(ws.pairs(name.strip()).pairs)
    if not seeds:
        raise SexprError("derive needs --seeds or --seed-pairs")
    ctx = ws.context(args.context) if args.context else None
    bounds = SaturationBounds(
        depth=args.depth, width=args.width, iterations=args.iterations, budget=args.budget
    )
    result = derive_closure(
        args.kind, seeds, ws.sig(), ctx=ctx, bounds=bounds, quackenbush=args.quackenbush
    )
    _out(args, {"verb": "derive", "kind": args.kind, "result": result})
    return 0


def cmd_query(args) -> int:
    ws = build_ws(args)
    g = ws.algebra(args.algebra)
    c = ws.clause(args.clause)
    ctx = ws.context(args.context) if args.context else None
    ok = holds_clause(g, c, ctx, args.cap)
    _out(args, {"verb": "query", "algebra": g.name, "clause": args.clause, "holds": ok})
    return 0 if ok else 1


def cmd_fo_variety(args) -> int:
    ws = build_ws(args)
    m = ws.model(args.model)
    ctx = ws.context(args.context)
    gctx = GeoContext(m.algebra, ctx, args.cap)
    formulas = [ws.formula(name.strip()) for name in args.formulas.split(",")]
    v = fo_variety(m, formulas, gctx)
    payload = {"verb": "fo-variety", "model": args.model, "count": len(v), "points": v}
    code = 0
    if args.closure_query:
        u = ws.formula(args.closure_query)
        member = fo_closure_member(m, formulas, u, gctx)
        payload["closure_query"] = args.closure_query
        payload["member"] = member
        code = 0 if member else 1
    _out(args, payload)
    return code


# check batteries: small seeded sweeps over the stock algebras


def _battery_galois(seed: int, trials: int, cap: Optional[int], failures: list[str]) -> None:
    for g in (cyclic_group(2), cyclic_group(4), klein_four()):
        ctx = VarContext(GROUP_SIG, [("x", "g"), ("y", "g")])
        gctx = GeoContext(g, ctx, cap)
        pool = candidate_pairs(GROUP_SIG, ctx, depth=2, seed=seed, count=12)
        rng = random.Random((seed << 8) ^ int(g.digest(), 16) % (1 << 30))
        for trial in range(trials):
            t1 = PairSet(rng.sample(pool, min(rng.randint(0, 3), len(pool))))
            t2 = t1.union(PairSet(rng.sample(pool, min(rng.randint(0, 2), len(pool)))))
            a1, a2 = variety_of(gctx, t1), variety_of(gctx, t2)
            if not a2.issubset(a1):
                failures.append(f"galois antitone broke on {g.name} trial {trial}")
            k1 = congruence_of(a1, cap)
            if not all(k1.members(t1)):
                failures.append(f"galois T within T'' broke on {g.name} trial {trial}")
            a1cc = closure_variety(a1, cap)
            if not a1.issubset(a1cc):
                failures.append(f"galois A within A'' broke on {g.name} trial {trial}")
            if closure_variety(a1cc, cap) != a1cc:
                failures.append(f"galois idempotence broke on {g.name} trial {trial}")


def _battery_nullsatz(seed: int, trials: int, cap: Optional[int], failures: list[str]) -> None:
    rng = random.Random(seed)
    pools = [
        [cyclic_group(2), cyclic_group(3), cyclic_group(4)],
        [chain_semilattice(2), chain_semilattice(3)],
    ]
    for pool in pools:
        sig = pool[0].sig
        ctx = VarContext(sig, [("x", sig.sorts[0]), ("y", sig.sorts[0])])
        for _ in range(trials):
            h = rng.choice(pool)
            g = rng.choice(pool)
            q = tuple(rng.randrange(h.sizes[s]) for _, s in ctx.vars)
            rep = nullstellensatz_check(kernel_of_point(q, h, ctx), GeoContext(g, ctx, cap), cap)
            if not (rep.agrees and rep.meet_agrees):
                failures.append(f"nullsatz disagreed: kernel {h.name}@{q} over {g.name}")


def _battery_halmos(seed: int, trials: int, cap: Optional[int], failures: list[str]) -> None:
    g = cyclic_group(2)
    ctx = VarContext(GROUP_SIG, [("x", "g"), ("y", "g")])
    gctx = GeoContext(g, ctx, cap)
    n = len(gctx.points)
    values = [PointSet.of_mask(gctx, mask) for mask in range(1 << n)]
    subs = [
        Substitution({}),
        Substitution({"x": var("y"), "y": var("x")}),
        Substitution({"x": var("y")}),
        Substitution({"x": app("mul", var("x"), var("y"))}),
    ]
    for msg in halmos_axiom_violations(gctx, values, subs):
        failures.append(f"halmos: {msg}")


def _battery_rules(seed: int, trials: int, cap: Optional[int], failures: list[str]) -> None:
    from .rules import identity, pseudo, quasi, universal

    x, y = var("x"), var("y")
    comm = (app("mul", x, y), app("mul", y, x))
    sq = (app("mul", x, x), app("e"))
    pool = [cyclic_group(2), cyclic_group(3), klein_four(), symmetric_group_3()]
    seeds_by_kind = {
        "identity": [identity(comm)],
        "pseudo": [pseudo([sq])],
        "universal": [universal([comm], [])],
        "quasi": [quasi([sq], (x, app("inv", x)))],
    }
    bounds = SaturationBounds(depth=2, width=1, iterations=2, budget=1500)
    for kind in KINDS:
        seeds = seeds_by_kind[kind]
        result = derive_closure(kind, seeds, GROUP_SIG, bounds=bounds)
        for alg_name, clause in soundness_check(result.clauses, seeds, pool, cap=cap):
            failures.append(f"rules: {kind} derivation unsound on {alg_name}: {clause!r}")


def _battery_fundamental(seed: int, trials: int, cap: Optional[int], failures: list[str]) -> None:
    rng = random.Random(seed)
    g = symmetric_group_3()
    rel_sig = RelSignature(GROUP_SIG, [])
    m = Model(g, rel_sig, {})
    ctx = VarContext(GROUP_SIG, [("x", "g"), ("y", "g")])
    for trial in range(trials):
        seeds = [(0, rng.randrange(g.sizes[0])) for _ in range(rng.randint(1, 2))]
        sub = subalgebra_generated(g, seeds)
        u = None
        for _ in range(20):
            cand = random_formula(rng, GROUP_SIG, ctx, rel_sig=None, depth=2)
            if is_open(cand):
                u = cand
                break
        if u is None:
            continue
        rep = fundamental_check(m, sub, u, ctx, cap)
        if rep.open_formula and rep.relation != "equal":
            failures.append(f"fundamental equality broke on trial {trial}: {rep.relation}")


_BATTERIES = {
    "galois": _battery_galois,
    "nullsatz": _battery_nullsatz,
    "halmos": _battery_halmos,
    "rules": _battery_rules,
    "fundamental": _battery_fundamental,
}


def cmd_check(args) -> int:
    names = list(_BATTERIES) if args.suite == "all" else [args.suite]
    failures: list[str] = []
    ran = []
    for name in names:
        before = len(failures)
        _BATTERIES[name](args.seed, args.trials, args.cap, failures)
        ran.append({"suite": name, "failures": len(failures) - before})
    payload = {
        "verb": "check",
        "seed": args.seed,
        "trials": args.trials,
        "suites": ran,
        "failures": failures,
        "ok": not failures,
    }
    _out(args, payload)
    return 0 if not failures else 1


def _arg(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


def _count(text: str) -> int:
    """An argparse type: an integer that is not negative."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"not a count (an integer of at least 0): {text!r}")
    return int(text)


_ALGEBRA = _arg("-a", "--algebra", required=True)
_CONTEXT = _arg("-c", "--context", required=True)
_PAIRS = _arg("-p", "--pairs", required=True)
_SEED = _arg("--seed", type=int, default=0)
_TWO_VARIETIES = (
    _arg("--ctx-a", required=True),
    _arg("--pairs-a", required=True),
    _arg("--ctx-b", required=True),
    _arg("--pairs-b", required=True),
)

# options every verb takes, registered ahead of the verb's own
COMMON = (
    _arg("-f", "--file", action="append", help="workspace file (repeatable)"),
    _arg("--builtin", choices=list(STOCK), help="preload a stock library"),
    _arg("--format", choices=["text", "json"], default="text"),
    _arg("--cap", type=int, default=None, help="state-count guard"),
)

# verb -> (help, its own arguments); a verb such as fo-variety runs cmd_fo_variety
VERBS = {
    "parse": ("load workspace files and summarize", ()),
    "eval": (
        "evaluate a term at a point",
        (
            _ALGEBRA,
            _CONTEXT,
            _arg("--term", required=True),
            _arg("--point", required=True, help="comma-separated values in context order"),
        ),
    ),
    "variety": ("solution set of an equation set", (_ALGEBRA, _CONTEXT, _PAIRS)),
    "closure": (
        "closure T'' of an equation set",
        (
            _ALGEBRA,
            _CONTEXT,
            _PAIRS,
            _arg("--query", help="inline pair to test for membership in T''"),
        ),
    ),
    "nullsatz": (
        "two-route closure comparison for a point kernel",
        (
            _arg("--image", required=True, help="algebra receiving the presenting kernel"),
            _arg("--assignment", required=True, help="kernel point, comma-separated"),
            _arg("--target", required=True, help="algebra the geometry lives over"),
            _CONTEXT,
        ),
    ),
    "point-closure": (
        "closure of a single point",
        (_ALGEBRA, _CONTEXT, _arg("--point", required=True)),
    ),
    "verbal": (
        "points whose image satisfies given identities",
        (_ALGEBRA, _CONTEXT, _PAIRS, _arg("--ictx", help="context the identities are read in")),
    ),
    "morphism": (
        "check a substitution maps one variety into another",
        (_ALGEBRA, *_TWO_VARIETIES, _arg("--subst", required=True, help="inline ((var term) ...)")),
    ),
    "iso": (
        "search for a variety isomorphism",
        (_ALGEBRA, *_TWO_VARIETIES, _arg("--bound", type=_count, default=64)),
    ),
    "equiv": (
        "geometric equivalence of two algebras",
        (
            _ALGEBRA,
            _arg("-b", "--other", required=True),
            _CONTEXT,
            _arg(
                "--mode",
                choices=["exact", "sampled"],
                default="exact",
                help="sampled: the exact test, with equivalent reported as inconclusive",
            ),
            _arg("--samples", type=_count, default=40, help="echoed in a sampled inconclusive verdict"),
            _SEED,
        ),
    ),
    "derive": (
        "bounded saturation of closure rules",
        (
            _arg("--kind", choices=list(KINDS), required=True),
            _arg("--seeds", help="comma-separated clause names"),
            _arg("--seed-pairs", help="comma-separated pairs names, lifted to clauses"),
            _arg("-c", "--context"),
            _arg("--depth", type=_count, default=3),
            _arg("--width", type=_count, default=2),
            _arg("--iterations", type=_count, default=6),
            _arg("--budget", type=_count, default=20000),
            _arg("--quackenbush", action="store_true"),
        ),
    ),
    "query": (
        "does a clause hold in an algebra",
        (_ALGEBRA, _arg("--clause", required=True), _arg("-c", "--context")),
    ),
    "fo-variety": (
        "solution set of first-order formulas",
        (
            _arg("--model", required=True),
            _CONTEXT,
            _arg("--formulas", required=True, help="comma-separated formula names"),
            _arg("--closure-query", help="formula name to test for closure membership"),
        ),
    ),
    "check": (
        "run internal consistency batteries",
        (
            _arg("--suite", choices=["all"] + sorted(_BATTERIES), default="all"),
            _arg("--trials", type=_count, default=12),
            _SEED,
        ),
    ),
}


def make_parser() -> argparse.ArgumentParser:
    """The full parser: every verb in VERBS, each with COMMON and its own
    arguments. ``main`` builds it only for an argv that does not start
    with a verb or leaves arguments over (see ``_parse_args``)."""
    return _parser(_formatter())


def _formatter() -> partial:
    """A formatter class whose instances get the width a default
    ``HelpFormatter`` would compute. The terminal is asked once; argparse
    would otherwise ask again for each formatter it makes, one per
    argument."""
    return partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _parser(fmt: partial) -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="uag", description=__doc__, formatter_class=fmt)
    sub = top.add_subparsers(dest="verb", required=True, prog="uag")
    for name, (help_text, _) in VERBS.items():
        _add_arguments(sub.add_parser(name, help=help_text, formatter_class=fmt), name)
    return top


def _add_arguments(p: argparse.ArgumentParser, verb: str) -> argparse.ArgumentParser:
    """p with COMMON and the verb's own arguments added."""
    for flags, kwargs in COMMON + VERBS[verb][1]:
        p.add_argument(*flags, **kwargs)
    return p


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as by the full parser. When argv starts with a verb, only
    that verb's parser is built, as ``add_parser`` would build it, and it
    parses the rest of argv, which the full parser would hand it whole;
    building every verb's parser costs more than many verbs' own work on
    small inputs. The full parser is built only when argv does not start
    with a verb or leaves arguments over, which it reports as
    unrecognized."""
    fmt = _formatter()
    if argv and argv[0] in VERBS:
        verb = argv[0]
        p = _add_arguments(argparse.ArgumentParser(prog=f"uag {verb}", formatter_class=fmt), verb)
        args, extra = p.parse_known_args(argv[1:])
        if not extra:
            return argparse.Namespace(verb=verb, **vars(args))
    return _parser(fmt).parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    try:
        # looked up per call, so a rebound cmd_* is the one that runs
        return globals()["cmd_" + args.verb.replace("-", "_")](args)
    except (CapExceeded, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # a term nested past what a verb's recursive walks handle
        print("error: term nested too deep for this verb (recursion limit)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
