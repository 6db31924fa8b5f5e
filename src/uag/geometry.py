"""The Galois correspondence between equation sets and point sets.

Equations are pairs of terms over a fixed context; points are homomorphisms
W(ctx) -> G, represented as value tuples. variety_of sends equations down to
points, congruence_of sends points up to the kernel congruence of the
evaluation into the coordinate algebra (the subalgebra of G^A generated by
the variable rows). Compositions of the two give both closures.
"""

from __future__ import annotations

import itertools
import random
import warnings
from functools import partial, reduce
from operator import getitem, lshift
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .config import CapExceeded, check_cap, get_cap
from .algebras import (
    FiniteAlgebra,
    GeneratedSubalgebra,
    Point,
    _cell_rows,
    _hom_candidates,
    agree_mask,
    dense_blocks,
    enumerate_homs,
    eval_columns,
    eval_pairs,
    generate,
    quotient,
    satisfies_identity,
    subalgebra_generated,
)
from .congruences import (
    KernelCongruence,
    Pair,
    PairSet,
    _hom_kernel_labels,
    generated_kernel,
    ground_closure,
    h_ker,
    kernel_of_point,
    normalize_pair,
    unit_kernel,
)
from .spaces import GeoContext, PointSet
from .terms import (
    Substitution,
    Term,
    Value,
    adjoin_constants,
    app,
    constant_name,
    term_vars,
    var,
)

def variety_of(gctx: GeoContext, pairs: Iterable[Pair]) -> PointSet:
    """All points at which every equation holds: the meet of each
    equation's agree_mask over one evaluation."""
    mask = gctx.full_mask
    for lhs, rhs in eval_pairs(pairs, gctx.points, gctx.g, gctx.ctx):
        mask &= agree_mask(lhs, rhs)
    return PointSet.of_mask(gctx, mask)


class CoordinateAlgebra:
    """The image of W(ctx) in G^A for a nonempty point set A.

    Carriers are the value vectors generated from the variable rows; every
    element keeps a witness term that evaluates to it at each point of A.
    """

    __slots__ = ("gctx", "point_list", "generation", "algebra", "row_index", "vectors")

    def __init__(self, gctx: GeoContext, point_list: list[Point], generation: GeneratedSubalgebra):
        self.gctx = gctx
        self.point_list = point_list
        self.generation = generation
        self.algebra = generation.as_algebra()
        self.row_index = generation.generator_point()
        self.vectors = generation.members

    @property
    def witnesses(self) -> tuple[tuple[Term, ...], ...]:
        return self.generation.witnesses

    def kernel(self) -> KernelCongruence:
        return generated_kernel(self.generation, self.gctx.ctx)

    def __repr__(self) -> str:
        return f"CoordinateAlgebra(sizes={self.algebra.sizes}, points={len(self.point_list)})"


def coordinate_algebra(a: PointSet, cap: Optional[int] = None) -> CoordinateAlgebra:
    """The subalgebra of G^A generated by the variable rows of A.

    Members and table cells are charged against the cap as they are
    generated.
    """
    if len(a) == 0:
        raise ValueError("coordinate algebra needs a nonempty point set")
    gctx = a.gctx
    pts = a.points()
    rows = [(s, tuple(p[i] for p in pts)) for i, (_, s) in enumerate(gctx.ctx.vars)]
    sub = generate(
        [gctx.g] * len(pts),
        rows,
        gctx.ctx.names,
        get_cap(cap),
        stage="coordinate algebra",
        name=f"coord[{len(pts)}@{gctx.g.name}]",
    )
    return CoordinateAlgebra(gctx, pts, sub)


def congruence_of(a: PointSet, cap: Optional[int] = None) -> KernelCongruence:
    """A', the kernel congruence cutting out the point set.

    Empty sets yield the unit congruence; otherwise it is the kernel onto the
    coordinate algebra, whose generation raises CapExceeded past the cap.
    """
    if len(a) == 0:
        return unit_kernel(a.gctx.ctx, a.gctx.sig)
    return coordinate_algebra(a, cap).kernel()


def variety_of_kernel(k: KernelCongruence, gctx: GeoContext) -> PointSet:
    """All points whose kernel contains the given congruence.

    A point p qualifies iff evaluation at p factors through the image
    algebra of k, so no term enumeration is involved. That is decided for
    every point at once, by one GeneratedSubalgebra.extend_all call.
    """
    if k.ctx.vars != gctx.ctx.vars:
        raise ValueError("kernel and geometry context disagree")
    flags, _ = k.image().extend_all(gctx.points, gctx.g)
    return PointSet.of_flags(gctx, flags)


def closure_pairs(gctx: GeoContext, pairs: Iterable[Pair], cap: Optional[int] = None) -> KernelCongruence:
    """T'' as a kernel congruence: membership via .contains."""
    return congruence_of(variety_of(gctx, pairs), cap)


def closure_variety(a: PointSet, cap: Optional[int] = None) -> PointSet:
    """A'' inside the same point space."""
    return variety_of_kernel(congruence_of(a, cap), a.gctx)


def point_closure(gctx: GeoContext, p: Point) -> PointSet:
    """Closure of a single point: all points whose kernel contains its kernel."""
    return variety_of_kernel(kernel_of_point(tuple(p), gctx.g, gctx.ctx), gctx)


def point_classes(gctx: GeoContext) -> Iterator[tuple[int, Point, GeneratedSubalgebra]]:
    """Each point in order, with its class and the subalgebra of g its
    coordinates generate, named by the context's variables. Points share a
    class when their subalgebras have the same member sets; classes are
    numbered by first point, and each generation is made only when reached."""
    sorts = [s for _, s in gctx.ctx.vars]
    first: dict[tuple, int] = {}
    for p in gctx.points:
        sub = subalgebra_generated(gctx.g, list(zip(sorts, p)), gen_names=gctx.ctx.names)
        yield first.setdefault(tuple(frozenset(ms) for ms in sub.members), len(first)), p, sub


def point_subalgebras(gctx: GeoContext) -> tuple[list[tuple[Point, GeneratedSubalgebra]], list[int]]:
    """point_classes collected: each class's first point with its generation
    (its kernel's image), and each point's class."""
    classes: list[tuple[Point, GeneratedSubalgebra]] = []
    of_point = []
    for i, p, sub in point_classes(gctx):
        if i == len(classes):
            classes.append((p, sub))
        of_point.append(i)
    return classes, of_point


def verbal_variety(
    gctx: GeoContext,
    identities: Sequence[Pair],
    ictx=None,
    cap: Optional[int] = None,
) -> PointSet:
    """Points whose image subalgebra satisfies all the identities.

    The identities carry their own variables (ictx, inferred if omitted), so
    this is the point shape of restricting the target to a variety.
    """
    classes, of_point = point_subalgebras(gctx)
    ok = [all(satisfies_identity(sub.as_algebra(), pair, ictx, cap) for pair in identities) for _, sub in classes]
    return PointSet.of_flags(gctx, map(ok.__getitem__, of_point))


def _points_through(s: Substitution, points: Sequence[Point], gctx: GeoContext, out_ctx=None) -> list[Point]:
    """Each point composed with s: its values at s's images of out_ctx's variables.

    A binding for a variable outside out_ctx, or an image whose sort is not
    its variable's, raises ValueError.
    """
    out_ctx = out_ctx or gctx.ctx
    for name in s.bindings:
        if not out_ctx.has(name):
            raise ValueError(f"substitution binds unknown variable {name!r}")
    cols = eval_columns([s(name) for name in out_ctx.names], points, gctx.g, gctx.ctx)
    for (name, want), (got, _) in zip(out_ctx.vars, cols):
        if got != want:
            raise ValueError(f"substitution image for {name!r} has the wrong sort")
    return list(zip(*(col for _, col in cols)))


def pull_back(s: Substitution, gctx: GeoContext) -> Callable[[PointSet], PointSet]:
    """s acting on the point sets over gctx: A -> sA (see act_endo_variety).

    Composes every point with s once and keeps each point's image index
    (GeoContext.preimage). Reuse the result to act on many sets.
    """
    return gctx.preimage(map(gctx.point_index.__getitem__, _points_through(s, gctx.points, gctx)))


def act_endo_variety(s: Substitution, a: PointSet) -> PointSet:
    """sA = {points whose composition with s lands in A}.

    s must bind only variables of a's context, each to a term of the same
    sort; anything else raises ValueError. For many sets, use pull_back.
    """
    return pull_back(s, a.gctx)(a)


class MorphismCheck(Value):
    __slots__ = _fields = ("ok", "failing_point", "image_point")
    _defaults = {"failing_point": None, "image_point": None}


def morphism_check(s: Substitution, a: PointSet, b: PointSet) -> MorphismCheck:
    """Does composition with s map every point of a into b?

    s assigns to each variable of b's context a term over a's context.
    """
    ga, gb = a.gctx, b.gctx
    if ga.g.digest() != gb.g.digest():
        raise ValueError("morphisms need a common target algebra")
    pts = a.points()
    for p, q in zip(pts, _points_through(s, pts, ga, gb.ctx)):
        if q not in b:
            return MorphismCheck(False, failing_point=p, image_point=q)
    return MorphismCheck(True)


def presentation_pairs(k: KernelCongruence) -> PairSet:
    """Equations presenting a kernel congruence, read off its image.

    For every target H and point v: v satisfies these pairs iff k is
    contained in Ker(v), because the pairs transcribe the image's operation
    tables through the witness terms, cell by cell. The unit kernel's image
    presents the unit congruence.
    """
    sub = k.image()
    wit = sub.witnesses
    pairs: list[Pair] = []
    for (name, s), pos in zip(k.ctx.vars, sub.generator_point()):
        if wit[s][pos] is not var(name):
            pairs.append((var(name), wit[s][pos]))
    for op in sub.sig.ops:
        cells, want = sub.cells[op.name], wit[op.result]
        if not op.args:
            found = [(app(op.name), cells)]
        else:
            found = [
                (app(op.name, *[wit[s][i] for s, i in zip(op.args, (*prefix, j))]), val)
                for prefix, row in _cell_rows(cells, len(op.args))
                for j, val in enumerate(row)
            ]
        pairs.extend((t, want[val]) for t, val in found if t is not want[val])
    return PairSet(pairs)


def all_closed_point_sets(gctx: GeoContext, cap: Optional[int] = None):
    """Every closed point set, in lectic order (Ganter's NextClosure).

    The closed sets are the intersections of basic sets V(u = v), so they
    are the closed sets of a formal context whose objects are the points and
    whose attributes are the equalizers of the term functions on the whole
    space (_equalizers): the closure of a set is the meet of the attributes
    that contain it. No step builds a coordinate algebra or runs a hom check.

    If generating the term functions passes the cap, each closure is A''
    instead: the coordinate algebra of A, then the variety of its kernel.
    The term functions are the coordinate algebra of the full set, so that
    walk overflows too, with the same CapExceeded, at the latest at the
    first front whose closure is the full set; a consumer that stops early
    still gets the same sets before it.
    """
    n = len(gctx.points)
    try:
        attributes = _equalizers(gctx, cap)
    except CapExceeded:

        def clo(front: int) -> int:
            k = congruence_of(PointSet.of_mask(gctx, front), cap)
            return variety_of_kernel(k, gctx).mask

    else:

        def clo(front: int) -> int:
            out = gctx.full_mask
            for a in attributes:
                if front & a == front:
                    out &= a
            return out

    current = clo(0)
    yield PointSet.of_mask(gctx, current)
    while True:
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if current & bit:
                continue
            low = bit - 1
            candidate = clo(current & low | bit)
            if candidate & low == current & low:
                current = candidate
                yield PointSet.of_mask(gctx, current)
                break
        else:
            return


def _equalizers(gctx: GeoContext, cap: Optional[int] = None) -> list[int]:
    """The distinct masks of V(u = v) for term functions u, v on the whole space.

    The term functions are the members of the generation coordinate_algebra
    makes for gctx.full(), charged the same, so they raise the same
    CapExceeded; the pairs compared are charged too. A sort with no term
    has no members here, where coordinate_algebra raises. There are at most
    min(pairs, 2^points) masks of one bit per point.
    """
    pts, cap = gctx.points, get_cap(cap)
    rows = [(s, tuple(p[i] for p in pts)) for i, (_, s) in enumerate(gctx.ctx.vars)]
    members = generate([gctx.g] * len(pts), rows, gctx.ctx.names, cap, stage="coordinate algebra").members
    check_cap("equalizer pairs", sum(len(ms) * (len(ms) - 1) // 2 for ms in members), cap)
    # Each column is packed into one int, point i in digit i of w bits, whose
    # top bit (the guard) no value sets. With every guard of u ^ v set,
    # subtracting 1 from each digit clears exactly the guards of the points
    # where u and v agree. Below 128 a digit is a byte, so a column is packed
    # by one int.from_bytes.
    top = max(gctx.g.sizes) - 1
    if top < 128:
        w, pack = 8, partial(int.from_bytes, byteorder="little")
    else:
        w = top.bit_length() + 1
        shifts = range(0, len(pts) * w, w)

        def pack(u) -> int:
            return sum(map(lshift, u, shifts))

    ones = int(("0" * (w - 1) + "1") * len(pts), 2)
    guards = ones << w - 1
    agree: set[int] = set()
    for ms in members:
        packed = list(map(pack, ms))
        for i, u in enumerate(packed):
            agree.update([guards & ~((u ^ v | guards) - ones) for v in packed[i + 1 :]])
    # the guard of point i is character (n - 1 - i) * w of the numeral
    width = f"0{len(pts) * w}b"
    return [int(format(m, width)[::w], 2) for m in agree]


def separating_pair(ka: KernelCongruence, kb: KernelCongruence, cap: Optional[int] = None):
    """A pair of terms in exactly one of the two kernels, or None if equal.

    Generates the subalgebra of target_a x target_b from the paired variable
    rows, with its members and cells charged against the cap, and stops at
    the first member that collides with an earlier one in one component: a
    first-component collision is a pair in Ker(ka) only, a second-component
    collision one in Ker(kb) only. The pair is the two members' witnesses,
    read off the stopped generation. None means the kernels coincide (the
    collision-free pairing is a homomorphism both ways).
    """
    if ka.ctx.vars != kb.ctx.vars:
        raise ValueError("kernels live over different contexts")
    first: dict[tuple[int, int, int], tuple] = {}  # (side, sort, element) -> earliest member
    hit = None

    def collides(s: int, row: Sequence[int]) -> bool:
        nonlocal hit
        old = first.get((0, s, row[0])) or first.get((1, s, row[1]))
        if old is not None:
            hit = (s, old), (s, tuple(row))
            return True
        first[(0, s, row[0])] = first[(1, s, row[1])] = tuple(row)
        return False

    rows = [(s, (u, v)) for (_, s), u, v in zip(ka.ctx.vars, ka.assignment, kb.assignment)]
    gen = generate((ka.target, kb.target), rows, ka.ctx.names, get_cap(cap), "kernel separation scan", watch=collides)
    return None if hit is None else normalize_pair(tuple(gen.witness_of(s, member) for s, member in hit))


# each verdict's first field is its JSON tag, a class constant
class Equivalent(Value):
    _fields = ("verdict", "mode", "notice")
    __slots__ = _fields[1:]
    verdict = "equivalent"
    _defaults = {"notice": ""}


class NotEquivalent(Value):
    _fields = ("verdict", "equations", "pair", "holds_in", "fails_in", "notice")
    __slots__ = _fields[1:]
    verdict = "not-equivalent"
    _defaults = {"notice": ""}


# what `uag equiv --mode sampled` prints in place of Equivalent
class Inconclusive(Value):
    _fields = ("verdict", "samples", "notice")
    __slots__ = _fields[1:]
    verdict = "inconclusive"
    _defaults = {"notice": ""}


def _in_sp(a: FiniteAlgebra | GeneratedSubalgebra, b: FiniteAlgebra, cap: Optional[int]) -> bool:
    """Is a (a generation: its as_algebra()) in SP(b), i.e. do the
    homomorphisms a -> b separate a's elements?"""
    hk = h_ker(a, b, cap)
    return hk.block_counts() == hk.algebra.sizes


def _verified_not_equiv(k_src, k_dst, pair, eqs, src_name, dst_name):
    in_src, in_dst = k_src.contains(pair), k_dst.contains(pair)
    if in_src == in_dst:
        raise RuntimeError("separating pair failed re-verification")
    holds, fails = (src_name, dst_name) if in_src else (dst_name, src_name)
    return NotEquivalent(equations=eqs, pair=pair, holds_in=holds, fails_in=fails)


def geometric_equiv(
    g: FiniteAlgebra,
    h: FiniteAlgebra,
    ctx,
    mode: str = "exact",
    cap: Optional[int] = None,
    max_points: Optional[int] = None,
):
    """Do g and h impose the same closure on every equation set over ctx?

    Plotkin's local test, bounded by the cap alone: they do iff each distinct
    subalgebra S_p generated by a point p of either side lies in SP of the
    other algebra, i.e. h_ker(S_p, other) is the identity. A side that lies in
    SP of the other as a whole passes without point work, since then so does
    every S_p in it. Only a side that fails that test (or whose hom search
    exceeds the cap) is walked, class by class in point order, up to the first
    failing p (g's side first). S_p's hom search starts from p's coordinates,
    so its candidates are the other side's points, already within the cap.
    The first failing p gives the witness: the presentation of Ker(p) and a
    pair splitting it from its closure on the other side. "exact" is the
    only mode. max_points is ignored, with a warning, and every notice
    is ""; both stay for callers of the closed-set sweep this replaced.
    """
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if max_points is not None:
        warnings.warn("geometric_equiv ignores max_points", DeprecationWarning, stacklevel=2)
    if (g.sig.sorts, g.sig.ops) != (h.sig.sorts, h.sig.ops):
        raise ValueError("geometric comparison needs a common signature")
    gg = GeoContext(g, ctx, cap)
    gh = GeoContext(h, ctx, cap)
    for src, dst in ((gg, gh), (gh, gg)):
        try:
            if _in_sp(src.g, dst.g, cap):
                continue
        except CapExceeded:
            pass
        tested = 0
        for i, p, sub in point_classes(src):
            if i < tested:
                continue
            tested += 1
            if not _in_sp(sub, dst.g, cap):
                k = KernelCongruence(src.g, ctx, p, image=sub)
                k2 = congruence_of(variety_of_kernel(k, dst), cap)
                hit = separating_pair(k, k2, cap)
                return _verified_not_equiv(k, k2, hit, presentation_pairs(k), src.g.name, dst.g.name)
    return Equivalent(mode="exact")


class VarietyIso(Value):
    __slots__ = _fields = ("forward", "backward")


def _bijective_homs(x: FiniteAlgebra, y: FiniteAlgebra, cap: Optional[int] = None):
    if x.sizes != y.sizes:
        return
    for hm in enumerate_homs(x, y, cap):
        if all(len(set(hm[s])) == x.sizes[s] for s in range(len(x.sizes))):
            yield hm


def _vacuous_iso(a: PointSet, b: PointSet) -> Optional[VarietyIso]:
    def any_term(gctx, srt) -> Optional[Term]:
        for name, s in gctx.ctx.vars:
            if s == srt:
                return var(name)
        for op in gctx.sig.ops:
            if op.arity == 0 and op.result == srt:
                return app(op.name)
        return None

    fwd = {}
    for name, s in b.gctx.ctx.vars:
        t = any_term(a.gctx, s)
        if t is None:
            return None
        fwd[name] = t
    bwd = {}
    for name, s in a.gctx.ctx.vars:
        t = any_term(b.gctx, s)
        if t is None:
            return None
        bwd[name] = t
    return VarietyIso(Substitution(fwd), Substitution(bwd))


def variety_iso(
    a: PointSet,
    b: PointSet,
    cap: Optional[int] = None,
    bound: int = 64,
) -> Optional[VarietyIso]:
    """A mutually inverse substitution pair identifying the two point sets.

    forward maps b's variables to terms over a's context (so composition
    sends points of a into b); backward goes the other way. Candidate
    isomorphisms of the coordinate algebras are verified against all four
    point conditions before being returned. None means no candidate survives.
    """
    if a.gctx.g.digest() != b.gctx.g.digest():
        raise ValueError("isomorphism check needs a common target algebra")
    if len(a) == 0 and len(b) == 0:
        return _vacuous_iso(a, b)
    if len(a) == 0 or len(b) == 0:
        return None
    ca, cb = coordinate_algebra(a, cap), coordinate_algebra(b, cap)
    for c in (ca, cb):
        n = sum(c.algebra.sizes)
        if n > bound:
            raise CapExceeded("variety_iso coordinate algebra", n, bound)
    if ca.algebra.sizes != cb.algebra.sizes:
        return None
    for psi in _bijective_homs(ca.algebra, cb.algebra, cap):
        inv = tuple(
            tuple(sorted(range(len(psi[s])), key=lambda e: psi[s][e]))
            for s in range(len(psi))
        )
        forward = Substitution(
            {
                name: ca.witnesses[s][inv[s][cb.row_index[j]]]
                for j, (name, s) in enumerate(b.gctx.ctx.vars)
            }
        )
        backward = Substitution(
            {
                name: cb.witnesses[s][psi[s][ca.row_index[i]]]
                for i, (name, s) in enumerate(a.gctx.ctx.vars)
            }
        )
        if _iso_verifies(a, b, forward, backward):
            return VarietyIso(forward, backward)
    return None


def _iso_verifies(a: PointSet, b: PointSet, forward: Substitution, backward: Substitution) -> bool:
    for x, y, there, back in ((a, b, forward, backward), (b, a, backward, forward)):
        pts = x.points()
        images = _points_through(there, pts, x.gctx, y.gctx.ctx)
        if not all(q in y for q in images) or _points_through(back, images, y.gctx, x.gctx.ctx) != pts:
            return False
    return True


def pointwise_closed(a: PointSet, op_name: str) -> bool:
    """Is the point set closed under applying the operation coordinatewise?

    A nullary operation asks whether its constant point belongs to the set.
    """
    gctx = a.gctx
    op = gctx.sig.op(op_name)
    for name, s in gctx.ctx.vars:
        if s != op.result or any(t != op.result for t in op.args):
            raise ValueError(
                f"coordinatewise {op_name!r} is not defined on this context (variable {name!r})"
            )
    pts = a.points()
    table = gctx.g.nested()[op_name]
    if op.arity == 0:
        return tuple([table] * len(gctx.ctx.vars)) in a
    for combo in itertools.product(pts, repeat=op.arity):
        out = tuple(reduce(getitem, column, table) for column in zip(*combo))
        if out not in a:
            return False
    return True


class FaithfulVerdict(Value):
    __slots__ = _fields = ("status", "witness")
    _defaults = {"witness": None}


def faithful_solvable(
    g: FiniteAlgebra,
    pairs: Iterable[Pair],
    identity_instances: Iterable[Pair] = (),
) -> FaithfulVerdict:
    """Can the system be solved without collapsing distinct constants of g?

    Constants are adjoined for every element; the ground diagram, the given
    equations, and any supplied identity instances are congruence-closed. A
    merge of two distinct constants is a definite failure. No merge certifies
    faithfulness only when everything supplied is ground and no background
    identities were assumed; otherwise the verdict stays unknown.
    """
    pairs = list(pairs)
    instances = list(identity_instances)
    sig_c, diagram = adjoin_constants(g.sig, g)
    gc = ground_closure(itertools.chain(diagram, pairs, instances))
    for s in range(len(g.sig.sorts)):
        consts = [app(constant_name(sig_c, s, e)) for e in range(g.sizes[s])]
        for c1, c2 in itertools.combinations(consts, 2):
            if gc.contains((c1, c2)):
                return FaithfulVerdict("not-faithful", witness=(c1, c2))
    ground = all(
        not term_vars(t) for w, w2 in itertools.chain(pairs, instances) for t in (w, w2)
    )
    if ground and not instances:
        return FaithfulVerdict("faithful-ground")
    return FaithfulVerdict("unknown")


class NullstellensatzReport(Value):
    __slots__ = _fields = ("agrees", "meet_agrees", "image_sizes", "quotient_sizes", "hom_count", "separating")
    _defaults = {"separating": None}


def nullstellensatz_check(
    t_kernel: KernelCongruence, gctx: GeoContext, cap: Optional[int] = None
) -> NullstellensatzReport:
    """Compare T'' computed through points with the radical-free normal form.

    Route one evaluates the closure geometrically: variety of the kernel,
    then the coordinate-algebra congruence. Route two quotients the image
    algebra W/T by the meet of the kernels of all its homomorphisms into
    the target, and reads T'' off as a kernel congruence. Both come from
    one extend_all of the image's generators, the context's variables, over
    gctx's points: a point extends iff it lies in V(T), and the
    homomorphisms W/T -> G are those extensions, so each member's column at
    V(T) labels its block of the meet (_hom_kernel_labels; the unit
    partition when V(T) is empty). Before that extension the cap is charged
    what the hom search from the image's seeds would count
    (algebras._hom_candidates). A kernel over another context raises
    ValueError before either route. A third view re-checks route one
    against the meet of the individual point kernels, decided pointwise:
    the coordinate algebra holds at the points of V(T) (_holds_at_points),
    which implies every pair of its kernel's presentation is in both, and
    25 sample probes are in both or in neither.
    """
    if t_kernel.ctx.vars != gctx.ctx.vars:
        raise ValueError("kernel and geometry context disagree")
    sub = t_kernel.image()
    a0 = sub.as_algebra()
    _hom_candidates(sub, gctx.g, cap)  # charged only: the candidates are among gctx's points
    flags, cols = sub.extend_all(gctx.points, gctx.g)
    points = PointSet.of_flags(gctx, flags)
    labels = _hom_kernel_labels(flags, cols, [range(n) for n in a0.sizes])
    blocks = dense_blocks(a0, labels)
    q = quotient(a0, blocks, name=f"{a0.name}/hker")
    rhs = KernelCongruence(
        q, t_kernel.ctx, tuple(blocks[s][e] for (_, s), e in zip(t_kernel.ctx.vars, sub.generator_point()))
    )
    coord = coordinate_algebra(points, cap) if len(points) else None
    lhs = congruence_of(points) if coord is None else coord.kernel()
    hit = separating_pair(lhs, rhs, cap)
    # the meet of the point kernels, taken pointwise: a probe is in it iff
    # its sides agree at every point, so nothing is generated
    probes = _probe_pool(gctx.sig, gctx.ctx)
    meet = [u == v for u, v in eval_pairs(probes, points.points(), gctx.g, gctx.ctx)]
    meet_agrees = (coord is None or _holds_at_points(coord)) and lhs.members(probes) == meet
    return NullstellensatzReport(
        agrees=hit is None,
        meet_agrees=meet_agrees,
        image_sizes=a0.sizes,
        quotient_sizes=q.sizes,
        hom_count=len(points),
        separating=hit,
    )


def _holds_at_points(c: CoordinateAlgebra) -> bool:
    """Does c's generation hold at the points of its set?

    Every witness evaluates to its member's column, and one extend_all over
    the points extends the generators everywhere, each member going to its
    own column. So members are their columns under a homomorphism whose
    tables are c's, which is what c's presentation says: each of its pairs
    is in c's kernel and holds at every point. That is O(|c| * |A|) work,
    where the presentation has O(|c|^2) pairs.
    """
    gen, g, pts = c.generation, c.gctx.g, c.point_list
    want = [(s, list(m)) for s, ms in enumerate(gen.members) for m in ms]
    if eval_columns([w for ws in gen.witnesses for w in ws], pts, g, c.gctx.ctx) != want:
        return False
    flags, cols = gen.extend_all(pts, g)
    return 0 not in flags and all(tuple(col) == m for cs, ms in zip(cols, gen.members) for col, m in zip(cs, ms))


_PROBE_POOLS: dict[tuple, tuple[Pair, ...]] = {}


def _probe_pool(sig, ctx) -> tuple[Pair, ...]:
    """nullstellensatz_check's sample probes, candidate_pairs(sig, ctx, 2,
    seed=17, count=25), built once per signature shape and context; terms
    are interned for the life of the process, so a kept pool stays valid."""
    key = (sig.sorts, sig.ops, ctx.vars)
    pool = _PROBE_POOLS.get(key)
    if pool is None:
        pool = _PROBE_POOLS[key] = tuple(candidate_pairs(sig, ctx, 2, seed=17, count=25))
    return pool


def random_term(rng: random.Random, sig, ctx, depth: int, srt: Optional[int] = None) -> Term:
    """A random well-sorted term; variables and nullary ops are the atoms."""
    if srt is None:
        srt = ctx.vars[rng.randrange(len(ctx.vars))][1]
    atoms: list[Term] = [var(name) for name, s in ctx.vars if s == srt]
    atoms += [app(op.name) for op in sig.ops if op.arity == 0 and op.result == srt]
    builders = [op for op in sig.ops if op.arity > 0 and op.result == srt]
    if depth <= 0 or not builders or (atoms and rng.random() < 0.35):
        if not atoms:
            raise ValueError(f"no atomic term of sort {sig.sorts[srt]!r} in this context")
        return atoms[rng.randrange(len(atoms))]
    op = builders[rng.randrange(len(builders))]
    return app(op.name, *[random_term(rng, sig, ctx, depth - 1, s) for s in op.args])


def candidate_pairs(sig, ctx, depth: int, seed: int, count: int) -> list[Pair]:
    """A deterministic pool of distinct nontrivial same-sort equation pairs."""
    rng = random.Random(seed)
    out: list[Pair] = []
    seen: set[tuple[int, int]] = set()
    attempts = 0
    while len(out) < count and attempts < 60 * count:
        attempts += 1
        srt = ctx.vars[rng.randrange(len(ctx.vars))][1]
        w = random_term(rng, sig, ctx, rng.randint(0, depth), srt)
        w2 = random_term(rng, sig, ctx, rng.randint(0, depth), srt)
        if w is w2:
            continue
        w, w2 = normalize_pair((w, w2))
        if (id(w), id(w2)) in seen:
            continue
        seen.add((id(w), id(w2)))
        out.append((w, w2))
    return out
