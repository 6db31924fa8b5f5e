"""Independent reference implementations used to cross-check the package.

Everything here recomputes results by a different route than the library:
brute-force map enumeration instead of generator extension, relabeling
fixpoints instead of union-find, definitional set semantics instead of
index algebra. Slow on purpose; only fed tiny inputs.
"""

from __future__ import annotations

import itertools
import math

from uag.algebras import FiniteAlgebra, dense_blocks, index_to_tuple
from uag.terms import App, Term, Var, VarContext, app


def o_eval(t: Term, env: dict[str, int], tables) -> int:
    if isinstance(t, Var):
        return env[t.name]
    assert isinstance(t, App)
    return tables[t.op][tuple(o_eval(a, env, tables) for a in t.args)]


def o_points(g, ctx):
    ranges = [range(g.sizes[s]) for _, s in ctx.vars]
    return [p for p in itertools.product(*ranges)]


def o_env(ctx, p):
    return {name: p[i] for i, (name, _) in enumerate(ctx.vars)}


def o_variety(g, ctx, pairs):
    out = []
    for p in o_points(g, ctx):
        env = o_env(ctx, p)
        if all(o_eval(a, env, g.tables) == o_eval(b, env, g.tables) for a, b in pairs):
            out.append(p)
    return out


def o_variety_of_kernel(k, g, ctx):
    """V(k): the points where every pair of k's presentation evaluates equal.

    The presentation comes from uag.geometry.presentation_pairs; no hom
    extension is involved.
    """
    from uag.geometry import presentation_pairs

    return o_variety(g, ctx, presentation_pairs(k).pairs)


def o_extend(sub, images, b):
    """Member images of the homomorphism from sub's algebra into b sending
    generator i to images[i], as one list per sort; None if there is none.

    Each member's image is its witness term evaluated at the images, with a
    memo keyed by term id so that deep witnesses cost linear time. Then each
    generator and every cell of sub.cells, indexed combination by
    combination, is checked against b's tables.
    """
    env = {name: v for (name, _, _), v in zip(sub.gen_vars, images)}
    memo: dict[int, int] = {}

    def ev(t):
        if id(t) not in memo:
            memo[id(t)] = env[t.name] if isinstance(t, Var) else b.tables[t.op][tuple(ev(a) for a in t.args)]
        return memo[id(t)]

    imgs = [[ev(w) for w in ws] for ws in sub.witnesses]
    if any(imgs[s][pos] != v for (s, pos), v in zip(sub.seeds, images)):
        return None
    for op in sub.sig.ops:
        for combo in itertools.product(*[range(len(imgs[s])) for s in op.args]):
            val = sub.cells[op.name]
            for i in combo:
                val = val[i]
            if b.tables[op.name][tuple(imgs[s][i] for s, i in zip(op.args, combo))] != imgs[op.result][val]:
                return None
    return imgs


def o_identity_holds(g, ctx, pair) -> bool:
    return len(o_variety(g, ctx, [pair])) == len(o_points(g, ctx))


def o_clause_holds(g, ctx, c) -> bool:
    """Clause truth read off each kind's definition, point by point."""
    for p in o_points(g, ctx):
        env = o_env(ctx, p)

        def eq(pair):
            return o_eval(pair[0], env, g.tables) == o_eval(pair[1], env, g.tables)

        if c.kind == "identity":
            ok = eq(c.cons)
        elif c.kind == "pseudo":
            ok = any(eq(q) for q in c.pos)
        elif c.kind == "universal":
            ok = any(eq(q) for q in c.pos) or any(not eq(q) for q in c.neg)
        else:
            ok = not all(eq(q) for q in c.ante) or (c.cons is not None and eq(c.cons))
        if not ok:
            return False
    return True


def o_soundness_check(derived, seeds, pool, ctx=None, cap=None):
    """Violations of derived clauses in pool algebras that satisfy the seeds,
    one holds_clause call, with its own points and evaluation, per clause."""
    from uag.rules import holds_clause

    derived, seeds = list(derived), list(seeds)
    violations = []
    for g in pool:
        if all(holds_clause(g, c, ctx, cap) for c in seeds):
            for c in derived:
                if not holds_clause(g, c, ctx, cap):
                    violations.append((g.name, c))
    return violations


def o_render(t: Term) -> str:
    """Fully parenthesized prefix form, by plain recursion."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.op
    return "(" + " ".join([t.op] + [o_render(a) for a in t.args]) + ")"


def o_term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(o_term_size(a) for a in t.args)


def o_term_depth(t: Term) -> int:
    """0 for a variable; 1 for a constant; otherwise one more than the
    deepest argument."""
    if isinstance(t, Var):
        return 0
    return 1 + max((o_term_depth(a) for a in t.args), default=0)


def o_subterms(terms):
    seen: list[Term] = []
    ids = set()

    def walk(t):
        if id(t) in ids:
            return
        ids.add(id(t))
        seen.append(t)
        if isinstance(t, App):
            for a in t.args:
                walk(a)

    for t in terms:
        walk(t)
    return seen


def o_term_vars(t: Term, out=None) -> list[str]:
    """Variable names in first-occurrence order, by plain recursion."""
    out = [] if out is None else out
    if isinstance(t, Var):
        if t.name not in out:
            out.append(t.name)
    else:
        for a in t.args:
            o_term_vars(a, out)
    return out


def o_sort_of(t: Term, sig, ctx) -> int:
    """Sort index, or the ValueError of the first fault a left-to-right
    recursion meets: each node's op and arity before its arguments, each
    argument's sort before the next argument."""
    if isinstance(t, Var):
        if not ctx.has(t.name):
            raise ValueError(f"unknown variable {t.name!r}")
        return ctx.sort_of(t.name)
    if not sig.has_op(t.op):
        raise ValueError(f"unknown op {t.op!r}")
    op = sig.op(t.op)
    if len(t.args) != op.arity:
        raise ValueError(f"op {t.op!r}: expected {op.arity} arguments, got {len(t.args)}")
    for child, want in zip(t.args, op.args):
        got = o_sort_of(child, sig, ctx)
        if got != want:
            raise ValueError(
                f"op {t.op!r}: argument {o_render(child)} has sort "
                f"{sig.sorts[got]!r}, expected {sig.sorts[want]!r}"
            )
    return op.result


def o_inferred_context(sig, terms) -> VarContext:
    """Each variable takes the sort of the first op position a left-to-right
    recursion meets it at; bare variables take the one sort, if there is one."""
    sorts: dict[str, int] = {}

    def walk(t):
        if isinstance(t, App):
            op = sig.op(t.op)
            if len(t.args) != op.arity:
                raise ValueError(f"op {t.op!r}: arity mismatch")
            for child, s in zip(t.args, op.args):
                if isinstance(child, Var):
                    if sorts.setdefault(child.name, s) != s:
                        raise ValueError(f"variable {child.name!r} used at two sorts")
                else:
                    walk(child)

    for t in terms:
        walk(t)
    order: list[str] = []
    for t in terms:
        o_term_vars(t, order)
    if not order:
        order, sorts = ["x"], {"x": 0}
    for name in order:
        if name not in sorts:
            if len(sig.sorts) != 1:
                raise ValueError(f"cannot infer sort of bare variable {name!r}; pass a context")
            sorts[name] = 0
    return VarContext(sig, [(name, sig.sorts[sorts[name]]) for name in order])


def o_apply_subst(s, t: Term) -> Term:
    """Each variable replaced by its image, by plain recursion."""
    if isinstance(t, Var):
        return s.bindings.get(t.name) or t
    return app(t.op, *[o_apply_subst(s, a) for a in t.args])


def o_act_endo_pairs(s, pairs):
    """Image of an equation set under an endomorphism of the term algebra,
    pair by pair through o_apply_subst."""
    return [(o_apply_subst(s, w), o_apply_subst(s, w2)) for w, w2 in pairs]


def o_ground_closure_classes(pairs, extra_terms=()):
    """Congruence closure by iterated relabeling over the subterm universe."""
    universe = o_subterms([t for p in pairs for t in p] + list(extra_terms))
    label = {id(t): i for i, t in enumerate(universe)}
    by_id = {id(t): t for t in universe}

    def merge(a, b):
        la, lb = label[id(a)], label[id(b)]
        if la == lb:
            return False
        lo, hi = min(la, lb), max(la, lb)
        for k, v in label.items():
            if v == hi:
                label[k] = lo
        return True

    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            if merge(a, b):
                changed = True
        for t in universe:
            for u in universe:
                if (
                    isinstance(t, App)
                    and isinstance(u, App)
                    and t is not u
                    and t.op == u.op
                    and len(t.args) == len(u.args)
                    and all(label[id(x)] == label[id(y)] for x, y in zip(t.args, u.args))
                    and merge(t, u)
                ):
                    changed = True
    out: dict[int, list[Term]] = {}
    for t in universe:
        out.setdefault(label[id(t)], []).append(t)
    return list(out.values()), label, by_id


def o_ground_same(pairs, a, b, extra_terms=()) -> bool:
    _, label, _ = o_ground_closure_classes(pairs, list(extra_terms) + [a, b])
    return label[id(a)] == label[id(b)]


def o_circ_member(premises, candidate) -> bool:
    """The composition test with a fresh relabeling closure per goal: every
    choice of one literal per premise, with the candidate's negated side
    joining the chosen equations, must ground-derive a positive literal of the
    candidate or a chosen negated equation."""
    lists = [[("+", q) for q in u.pos] + [("-", q) for q in u.neg] for u in premises]
    for chosen in itertools.product(*lists):
        prem = list(candidate.neg) + [q for tag, q in chosen if tag == "+"]
        goals = list(candidate.pos) + [q for tag, q in chosen if tag == "-"]
        if not any(o_ground_same(prem, a, b) for a, b in goals):
            return False
    return True


def o_composed(cur, candidates, sizes, budget, member=o_circ_member):
    """The budget order of a composition step, one test at a time: each
    candidate outside cur tries the premise combinations of cur, smallest
    first, spending one unit of budget per test, until member says one
    derives it. Returns the derived candidates, the budget left, and whether
    a test found the budget spent."""
    out = []
    for cand in candidates:
        if cand in cur:
            continue
        for k in sizes:
            for combo in itertools.combinations(range(len(cur)), k):
                if budget <= 0:
                    return out, budget, True
                budget -= 1
                if member(tuple(cur[i] for i in combo), cand):
                    out.append(cand)
                    break
            else:
                continue
            break
    return out, budget, False


def o_homs(a, b):
    """All homomorphisms a -> b by filtering every total map. Exponential."""
    per_sort_maps = []
    for s in range(len(a.sig.sorts)):
        per_sort_maps.append(
            [dict(enumerate(img)) for img in itertools.product(range(b.sizes[s]), repeat=a.sizes[s])]
        )
    out = []
    for combo in itertools.product(*per_sort_maps):
        ok = True
        for op in a.sig.ops:
            for args, val in a.tables[op.name].items():
                mapped = tuple(combo[s][x] for s, x in zip(op.args, args))
                if b.tables[op.name][mapped] != combo[op.result][val]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(tuple(m[i] for i in range(a.sizes[s])) for s, m in enumerate(combo)))
    return out


def o_h_ker_blocks(g, h):
    """Per sort: lists of elements identified by every homomorphism g -> h."""
    homs = o_homs(g, h)
    blocks = []
    for s in range(len(g.sig.sorts)):
        key = {}
        for x in range(g.sizes[s]):
            key[x] = tuple(hm[s][x] for hm in homs)
        groups: dict[tuple, list[int]] = {}
        for x in range(g.sizes[s]):
            groups.setdefault(key[x], []).append(x)
        blocks.append(sorted(groups.values()))
    return blocks


def o_quotient(g, partition, name=None):
    """g by a partition, through tuple-keyed class tables: each class's value
    is set by the first of g's rows, in lexicographic order, to reach it, and
    the first row to disagree raises; FiniteAlgebra then checks and nests
    the tables."""
    block_of = dense_blocks(g, getattr(partition, "block_ids", partition))
    tables = {}
    for op in g.sig.ops:
        table = tables[op.name] = {}
        for args, val in g.tables[op.name].items():
            key = tuple(block_of[s][a] for s, a in zip(op.args, args))
            res = block_of[op.result][val]
            if table.setdefault(key, res) != res:
                raise ValueError(f"partition is not a congruence: op {op.name!r} splits class {key}")
    counts = [max(blocks) + 1 for blocks in block_of]
    return FiniteAlgebra(g.sig, counts, tables, name=name or f"{g.name}/~")


def o_tuple_to_index(tup, sizes) -> int:
    """The number of a row of factor elements, first factor most significant."""
    return sum(v * math.prod(sizes[k + 1 :]) for k, v in enumerate(tup))


def o_product(gs, name=None):
    """The product of the factors, cell by cell: each argument's number is
    turned into its row of factor elements (index_to_tuple), every factor
    applies the op, and the row of results is numbered back
    (o_tuple_to_index); FiniteAlgebra then checks and nests the tables."""
    sig = gs[0].sig
    factor_sizes = [tuple(g.sizes[s] for g in gs) for s in range(len(sig.sorts))]
    sizes = [math.prod(fs) for fs in factor_sizes]
    tables = {}
    for op in sig.ops:
        table = tables[op.name] = {}
        for args in itertools.product(*[range(sizes[s]) for s in op.args]):
            comps = [index_to_tuple(arg, factor_sizes[s]) for arg, s in zip(args, op.args)]
            result = [g.tables[op.name][tuple(comp[k] for comp in comps)] for k, g in enumerate(gs)]
            table[args] = o_tuple_to_index(result, factor_sizes[op.result])
    return FiniteAlgebra(sig, sizes, tables, name=name or "x".join(g.name for g in gs))


def o_restrict_submodel(m, members):
    """(model, to_parent, from_parent) of the submodel on an
    op-closed subset, numbered in increasing order, cell by cell: the first
    cell, in op declaration order and then lexicographic order, whose value
    leaves the subset raises; FiniteAlgebra then checks and nests the
    tables."""
    from uag.logic import Model

    g = m.algebra
    to_parent = tuple(tuple(sorted(set(ms))) for ms in members)
    from_parent = tuple({e: i for i, e in enumerate(ms)} for ms in to_parent)
    sizes = tuple(len(ms) for ms in to_parent)
    tables = {}
    for op in g.sig.ops:
        table = tables[op.name] = {}
        for combo in itertools.product(*[range(sizes[s]) for s in op.args]):
            parent_args = tuple(to_parent[s][k] for s, k in zip(op.args, combo))
            sub_val = from_parent[op.result].get(g.tables[op.name][parent_args])
            if sub_val is None:
                raise ValueError(f"subset is not closed under {op.name!r} at {parent_args}")
            table[combo] = sub_val
    alg = FiniteAlgebra(g.sig, sizes, tables, name=f"sub({m.name})")
    rels = {}
    for rel, rows in m.relations.items():
        sorts = m.rel_sig.rels[rel]
        mapped = [tuple(from_parent[s].get(e) for s, e in zip(sorts, row)) for row in rows]
        rels[rel] = {row for row in mapped if None not in row}
    return Model(alg, m.rel_sig, rels, name=f"sub({m.name})"), to_parent, from_parent


def o_row_subalgebra(g, ctx, points):
    """Subalgebra of G^points generated by the variable rows, as raw tuples."""
    rows: dict[int, set[tuple[int, ...]]] = {s: set() for s in range(len(g.sig.sorts))}
    for i, (_, s) in enumerate(ctx.vars):
        rows[s].add(tuple(p[i] for p in points))
    changed = True
    while changed:
        changed = False
        for op in g.sig.ops:
            pools = [sorted(rows[s]) for s in op.args]
            for args in itertools.product(*pools):
                val = tuple(
                    g.tables[op.name][tuple(a[j] for a in args)] for j in range(len(points))
                )
                if val not in rows[op.result]:
                    rows[op.result].add(val)
                    changed = True
    return {s: sorted(v) for s, v in rows.items()}


def o_generation_counts(g, ctx, points) -> tuple[int, int]:
    """(members, table cells) of the row subalgebra of G^points: a cell is
    one op applied to one tuple of argument members."""
    rows = o_row_subalgebra(g, ctx, points)
    sizes = [len(rows[s]) for s in range(len(g.sig.sorts))]
    return sum(sizes), sum(math.prod(sizes[s] for s in op.args) for op in g.sig.ops)


def o_closure_points(g, ctx, points):
    """A'' by the quotient-hom route: every hom from the row algebra back to g,
    restricted to the variable rows, is a point of the closure."""
    if not points:
        # empty set closes to the one-point-algebra solutions
        from uag.algebras import FiniteAlgebra

        sizes = [1] * len(g.sig.sorts)
        tables = {op.name: {tuple([0] * op.arity): 0} for op in g.sig.ops}
        one = FiniteAlgebra(g.sig, sizes, tables, name="one")
        return sorted(
            tuple(hm[s][0] for _, s in ctx.vars) for hm in o_homs(one, g)
        )
    rows = o_row_subalgebra(g, ctx, points)
    index = {s: {r: i for i, r in enumerate(rs)} for s, rs in rows.items()}
    from uag.algebras import FiniteAlgebra

    sizes = [len(rows[s]) for s in range(len(g.sig.sorts))]
    tables = {}
    for op in g.sig.ops:
        table = {}
        for args in itertools.product(*[rows[s] for s in op.args]):
            val = tuple(g.tables[op.name][tuple(a[j] for a in args)] for j in range(len(points)))
            table[tuple(index[s][a] for s, a in zip(op.args, args))] = index[op.result][val]
        tables[op.name] = table
    alg = FiniteAlgebra(g.sig, sizes, tables, name="rows")
    out = set()
    for hm in o_homs(alg, g):
        pt = []
        for i, (_, s) in enumerate(ctx.vars):
            row = tuple(p[i] for p in points)
            pt.append(hm[s][index[s][row]])
        out.add(tuple(pt))
    return sorted(out)


def o_closure_member(g, ctx, t_pairs, query) -> bool:
    """T'' membership definitionally: every solution of T solves the query."""
    for p in o_variety(g, ctx, t_pairs):
        env = o_env(ctx, p)
        if o_eval(query[0], env, g.tables) != o_eval(query[1], env, g.tables):
            return False
    return True


def o_exists(points_in, ys, ctx, all_points):
    """p is in E(Y)a iff some member of a agrees with p off Y."""
    ys = set(ys)
    keep = [i for i, (name, _) in enumerate(ctx.vars) if name not in ys]
    got = set()
    member = set(points_in)
    for p in all_points:
        for q in member:
            if all(p[i] == q[i] for i in keep):
                got.add(p)
                break
    return sorted(got)


def o_forall(points_in, ys, ctx, all_points):
    ys = set(ys)
    keep = [i for i, (name, _) in enumerate(ctx.vars) if name not in ys]
    member = set(points_in)
    out = []
    for p in all_points:
        if all(q in member for q in all_points if all(p[i] == q[i] for i in keep)):
            out.append(p)
    return sorted(out)


def o_forall_mask(gctx, mask, ys):
    """o_forall on the point set with the given mask of gctx, as a mask."""
    inside = [p for i, p in enumerate(gctx.points) if mask >> i & 1]
    return sum(1 << gctx.point_index[p] for p in o_forall(inside, ys, gctx.ctx, gctx.points))


def o_filter_generated(gens, gctx):
    """The masks of the least filter holding the generator masks, by
    fixpoint closure under meets, every universal quantifier and supersets."""
    names = [nm for nm, _ in gctx.ctx.vars]
    full = (1 << len(gctx.points)) - 1
    fam = {full, *gens}
    changed = True
    while changed:
        changed = False
        current = list(fam)
        for a in current:
            for b in current:
                if a & b not in fam:
                    fam.add(a & b)
                    changed = True
        for a in current:
            for r in range(len(names) + 1):
                for ys in itertools.combinations(names, r):
                    got = o_forall_mask(gctx, a, ys)
                    if got not in fam:
                        fam.add(got)
                        changed = True
            rest = full & ~a
            extra = rest
            while extra:  # every nonempty submask of rest
                if a | extra not in fam:
                    fam.add(a | extra)
                    changed = True
                extra = (extra - 1) & rest
    return fam


def o_is_filter(masks, gctx) -> bool:
    """Nonempty, meet-closed, up-closed and closed under every universal
    quantifier, checked condition by condition on masks."""
    fam = set(masks)
    if not fam:
        return False
    n = len(gctx.points)
    names = [nm for nm, _ in gctx.ctx.vars]
    for a in fam:
        if any(a & b not in fam for b in fam):
            return False
        # a family holding every one-point extension of each member holds
        # every superset of each member
        if any(a | 1 << i not in fam for i in range(n)):
            return False
        for r in range(len(names) + 1):
            for ys in itertools.combinations(names, r):
                if o_forall_mask(gctx, a, ys) not in fam:
                    return False
    return True


def o_eval_formula(m, f, ctx, all_points):
    """Definitional first-order satisfaction, point by point."""
    from uag.logic import And, Eq, Exists, Not, Or, Rel

    g = m.algebra

    def sat(f, env):
        if isinstance(f, Eq):
            return o_eval(f.lhs, env, g.tables) == o_eval(f.rhs, env, g.tables)
        if isinstance(f, Rel):
            row = tuple(o_eval(t, env, g.tables) for t in f.args)
            return row in m.relations.get(f.name, frozenset())
        if isinstance(f, And):
            return all(sat(x, env) for x in f.items)
        if isinstance(f, Or):
            return any(sat(x, env) for x in f.items)
        if isinstance(f, Not):
            return not sat(f.body, env)
        assert isinstance(f, Exists)
        slots = [(y, ctx.sort_of(y)) for y in f.ys]
        for choice in itertools.product(*[range(g.sizes[s]) for _, s in slots]):
            env2 = dict(env)
            for (y, _), v in zip(slots, choice):
                env2[y] = v
            if sat(f.body, env2):
                return True
        return False

    return sorted(p for p in all_points if sat(f, o_env(ctx, p)))


def o_tokenize(src: str) -> list[tuple[str, int, int]]:
    """(text, line, col) of each token, walking the text one character at a time."""
    out = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and src[i] != "\n":
                i += 1
        elif ch in "()":
            out.append((ch, line, col))
            col += 1
            i += 1
        else:
            start, scol = i, col
            while i < n and src[i] not in " \t\r\n();":
                i += 1
                col += 1
            out.append((src[start:i], line, scol))
    return out


def o_parse_nodes(src: str) -> list:
    """Top-level forms as nested lists of (text, line, col) atoms, by recursive
    descent; errors are ValueError with the reader's "line:col: message" text."""
    tokens = o_tokenize(src)
    pos = 0

    def walk():
        nonlocal pos
        tok = tokens[pos]
        if tok[0] == "(":
            pos += 1
            items = []
            while True:
                if pos >= len(tokens):
                    raise ValueError(f"{tok[1]}:{tok[2]}: unclosed parenthesis")
                if tokens[pos][0] == ")":
                    pos += 1
                    return items
                items.append(walk())
        if tok[0] == ")":
            raise ValueError(f"{tok[1]}:{tok[2]}: unexpected ')'")
        pos += 1
        return tok

    out = []
    while pos < len(tokens):
        out.append(walk())
    return out


def o_halmos_axiom_violations(gctx, values, substitutions=()) -> list[str]:
    """The Halmos axiom check as one loop nest over PointSets, with every
    cylinder and substitution image recomputed where it is used; the
    library's check must return the same messages in the same order."""
    from uag.geometry import pull_back
    from uag.logic import exists_set
    from uag.terms import term_vars, var

    out: list[str] = []
    names = [n for n, _ in gctx.ctx.vars]
    subsets = []
    for r in range(len(names) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(names, r))

    def note(msg: str) -> None:
        out.append(msg)

    for a in values:
        if exists_set(a, ()) != a:
            note(f"E(empty) changed a value set of size {len(a)}")
        for ys in subsets:
            ea = exists_set(a, ys)
            if not a.issubset(ea):
                note(f"a not below E({sorted(ys)})a")
            if exists_set(ea, ys) != ea:
                note(f"E({sorted(ys)}) not idempotent")
        for y1 in subsets:
            for y2 in subsets:
                if exists_set(a, y1 | y2) != exists_set(exists_set(a, y2), y1):
                    note(f"E({sorted(y1 | y2)}) != E({sorted(y1)})E({sorted(y2)})")
    for a in values:
        for b in values:
            for ys in subsets:
                lhs = exists_set(a.intersection(exists_set(b, ys)), ys)
                rhs = exists_set(a, ys).intersection(exists_set(b, ys))
                if lhs != rhs:
                    note(f"E({sorted(ys)}) fails the meet scheme")
    acts = [pull_back(s, gctx) for s in substitutions]
    for s1, act1 in zip(substitutions, acts):
        for s2, act2 in zip(substitutions, acts):
            for ys in subsets:
                if any(s1(n) is not s2(n) for n in names if n not in ys):
                    continue
                for a in values:
                    ea = exists_set(a, ys)
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
            for a in values:
                lhs = exists_set(act(a), ys)
                rhs = act(exists_set(a, pre))
                if lhs != rhs:
                    note(f"E({sorted(ys)})s != s E({sorted(pre)}) despite side conditions")
    return out


def o_equiv_by_sweep(g, h, ctx, cap=None):
    """Exact geometric equivalence by the lattice sweep: every closed point
    set of each side, g first, must cut out a congruence that is closed on
    the other side. The first one that is not gives the witness: its
    presentation, and a pair separating it from its closure on the other
    side. Exponential in the point count; it raises CapExceeded where the
    closed sets outgrow the cap.
    """
    from uag.geometry import (
        Equivalent,
        _verified_not_equiv,
        all_closed_point_sets,
        congruence_of,
        presentation_pairs,
        separating_pair,
        variety_of_kernel,
    )
    from uag.spaces import GeoContext

    gg, gh = GeoContext(g, ctx, cap), GeoContext(h, ctx, cap)
    for src, dst in ((gg, gh), (gh, gg)):
        for closed in all_closed_point_sets(src, cap):
            k = congruence_of(closed, cap)
            k2 = congruence_of(variety_of_kernel(k, dst), cap)
            hit = separating_pair(k, k2, cap)
            if hit:
                return _verified_not_equiv(k, k2, hit, presentation_pairs(k), src.g.name, dst.g.name)
    return Equivalent(mode="exact")


def o_equiv_eager(g, h, ctx, cap=None):
    """Exact geometric equivalence by Plotkin's local test, every point class
    generated first: each distinct subalgebra S_p of a point of either side,
    g first, must lie in SP of the other algebra. The first that does not
    gives the witness: the presentation of Ker(p), and a pair separating it
    from its closure on the other side. No whole-algebra test is made first,
    so a sort with no term over the context raises ValueError on any input.
    """
    from uag.congruences import KernelCongruence, h_ker
    from uag.geometry import (
        Equivalent,
        _verified_not_equiv,
        congruence_of,
        point_subalgebras,
        presentation_pairs,
        separating_pair,
        variety_of_kernel,
    )
    from uag.spaces import GeoContext

    gg, gh = GeoContext(g, ctx, cap), GeoContext(h, ctx, cap)
    for src, dst in ((gg, gh), (gh, gg)):
        for p, sub in point_subalgebras(src)[0]:
            s_p = sub.as_algebra()
            if h_ker(s_p, dst.g, cap).block_counts() != s_p.sizes:
                k = KernelCongruence(src.g, ctx, p, image=sub)
                k2 = congruence_of(variety_of_kernel(k, dst), cap)
                hit = separating_pair(k, k2, cap)
                return _verified_not_equiv(k, k2, hit, presentation_pairs(k), src.g.name, dst.g.name)
    return Equivalent(mode="exact")
