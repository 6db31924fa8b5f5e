"""Congruences on the term algebra and on finite algebras.

Two term-algebra representations: GroundCongruence (generated, via congruence
closure over a registered subterm-closed universe, variables treated as free
constants) and KernelCongruence (kernel of evaluation into a finite target;
membership is two evaluations). They are never converted implicitly.
"""

from __future__ import annotations

from itertools import compress
from typing import Collection, Iterable, Optional, Sequence

from .config import get_cap
from .algebras import (
    FiniteAlgebra,
    GeneratedSubalgebra,
    Point,
    _hom_search,
    class_tables,
    dense_blocks,
    eval_pairs,
    generate,
    subalgebra_generated,
    unit_algebra,
)
from .terms import App, Term, VarContext, term_key


Pair = tuple[Term, Term]


def normalize_pair(pair: Pair) -> Pair:
    w, w2 = pair
    return (w, w2) if term_key(w) <= term_key(w2) else (w2, w)


class PairSet:
    """Finite symmetric set of term pairs, canonically ordered and deduplicated.

    Immutable, so its hash is computed once, at construction.
    """

    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs: Iterable[Pair] = ()):
        seen: dict[tuple[int, int], Pair] = {}
        for p in pairs:
            w, w2 = normalize_pair(p)
            seen.setdefault((id(w), id(w2)), (w, w2))
        self.pairs: tuple[Pair, ...] = tuple(
            sorted(seen.values(), key=lambda p: (term_key(p[0]), term_key(p[1])))
        )
        self._hash = hash(tuple((id(a), id(b)) for a, b in self.pairs))

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: Pair) -> bool:
        w, w2 = normalize_pair(pair)
        return any(a is w and b is w2 for a, b in self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, PairSet) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return self._hash

    def union(self, other: "PairSet") -> "PairSet":
        return PairSet((*self.pairs, *other.pairs))

    def __repr__(self) -> str:
        return f"PairSet({len(self.pairs)} pairs)"


EMPTY_PAIRS = PairSet()


class GroundCongruence:
    """Union-find congruence closure over a registered term universe.

    Registering a term adds its whole subterm tree and re-closes, so queries
    against terms outside the original universe stay complete for ground
    consequence. copy() shares the use lists with its source; each side
    copies a shared list before its first change to it.
    """

    def __init__(self):
        self._parent: dict[Term, Term] = {}
        self._rank: dict[Term, int] = {}
        self._uses: dict[Term, list[App]] = {}
        self._owned: set[Term] = set()  # terms whose use list no copy shares
        self._sig_table: dict[tuple, App] = {}

    def copy(self) -> "GroundCongruence":
        """An independent closure with the same terms and classes."""
        gc = GroundCongruence.__new__(GroundCongruence)
        gc._parent = self._parent.copy()
        gc._rank = self._rank.copy()
        gc._uses = self._uses.copy()
        gc._owned = set()
        self._owned = set()
        gc._sig_table = self._sig_table.copy()
        return gc

    def _own_uses(self, r: Term) -> list[App]:
        """r's use list, copied first if a copy of this closure shares it."""
        if r in self._owned:
            return self._uses[r]
        self._owned.add(r)
        uses = self._uses[r] = self._uses[r].copy()
        return uses

    def find(self, t: Term) -> Term:
        parent = self._parent
        root = parent[t]
        if parent[root] is root:
            return root
        while parent[root] is not root:
            root = parent[root]
        while parent[t] is not root:
            parent[t], t = root, parent[t]
        return root

    def register(self, t: Term) -> None:
        """Add t and its subterms not yet present, each after its arguments.

        The one term walk that still recurses. An explicit stack would let the
        derive-fo benchmark's 5000-deep ground_closure succeed, and that op
        would then cost 6-12 ms a cycle: 18-28% of ops_per_s in two prototypes.
        """
        if t in self._parent:
            return
        if isinstance(t, App):
            for a in t.args:
                self.register(a)
        self._parent[t] = t
        self._rank[t] = 0
        self._uses[t] = []
        self._owned.add(t)
        if isinstance(t, App):
            for a in t.args:
                self._own_uses(self.find(a)).append(t)
            self._insert_signature(t)

    def _insert_signature(self, t: App) -> None:
        key = (t.op, tuple(self.find(a) for a in t.args))
        other = self._sig_table.get(key)
        if other is None:
            self._sig_table[key] = t
        elif self.find(other) is not self.find(t):
            self._merge(other, t)

    def merge(self, a: Term, b: Term) -> None:
        self.register(a)
        self.register(b)
        self._merge(a, b)

    def _merge(self, a: Term, b: Term) -> None:
        worklist = [(a, b)]
        while worklist:
            x, y = worklist.pop()
            rx, ry = self.find(x), self.find(y)
            if rx is ry:
                continue
            if self._rank[rx] < self._rank[ry]:
                rx, ry = ry, rx
            if self._rank[rx] == self._rank[ry]:
                self._rank[rx] += 1
            self._parent[ry] = rx
            moved = self._uses[ry]
            self._uses[ry] = []
            self._own_uses(rx).extend(moved)
            for u in moved:
                key = (u.op, tuple(self.find(c) for c in u.args))
                other = self._sig_table.get(key)
                if other is None:
                    self._sig_table[key] = u
                elif self.find(other) is not self.find(u):
                    worklist.append((other, u))

    def roots(self, terms: Collection[Term]) -> list[Term]:
        """The find root of each term, once every term is registered."""
        parent = self._parent
        for t in terms:
            if t not in parent:
                self.register(t)
        return [self.find(t) for t in terms]

    def contains(self, pair: Pair) -> bool:
        w, w2 = pair
        parent = self._parent
        if w not in parent:
            self.register(w)
        if w2 not in parent:
            self.register(w2)
        return self.find(w) is self.find(w2)

    def classes(self) -> list[list[Term]]:
        groups: dict[Term, list[Term]] = {}
        for t in self._parent:
            groups.setdefault(self.find(t), []).append(t)
        out = [sorted(g, key=term_key) for g in groups.values()]
        out.sort(key=lambda g: term_key(g[0]))
        return out


def ground_closure(pairs: PairSet | Iterable[Pair], extra_terms: Iterable[Term] = ()) -> GroundCongruence:
    gc = GroundCongruence()
    for t in extra_terms:
        gc.register(t)
    for w, w2 in pairs:
        gc.merge(w, w2)
    return gc


class KernelCongruence:
    """Ker of the evaluation W(ctx) -> target extending the assignment."""

    __slots__ = ("target", "ctx", "assignment", "_image")

    def __init__(
        self,
        target: FiniteAlgebra,
        ctx: VarContext,
        assignment: Point,
        image: Optional[GeneratedSubalgebra] = None,
    ):
        if len(assignment) != len(ctx):
            raise ValueError("assignment must cover the context")
        for (_, s), e in zip(ctx.vars, assignment):
            if not 0 <= e < target.sizes[s]:
                raise ValueError("assignment element out of range")
        self.target = target
        self.ctx = ctx
        self.assignment = tuple(assignment)
        self._image = image

    def members(self, pairs: Iterable[Pair]) -> list[bool]:
        """Membership of each pair, from one evaluation at the assignment."""
        return [lhs == rhs for lhs, rhs in eval_pairs(pairs, [self.assignment], self.target, self.ctx)]

    def contains(self, pair: Pair) -> bool:
        return self.members([pair])[0]

    def rows(self) -> list[tuple[int, int]]:
        return [(s, e) for (_, s), e in zip(self.ctx.vars, self.assignment)]

    def image(self) -> GeneratedSubalgebra:
        """The generated image subalgebra, generators named by context variables.

        Kernels built by generated_kernel carry it; others generate it once.
        """
        if self._image is None:
            self._image = subalgebra_generated(self.target, self.rows(), gen_names=self.ctx.names)
        return self._image

    def __repr__(self) -> str:
        return f"KernelCongruence(target={self.target.name}, assignment={self.assignment})"


def generated_kernel(sub: GeneratedSubalgebra, ctx: VarContext) -> KernelCongruence:
    """Ker of W(ctx) onto a generation seeded by ctx's variable rows.

    The target is the generated algebra itself. The kernel's image is the
    generation renamed to positions, so its members are elements of the
    target, as for any other kernel, and its as_algebra() is the target.
    """
    image = sub._renamed(tuple(tuple(range(len(ms))) for ms in sub.members))
    return KernelCongruence(image.as_algebra(), ctx, sub.generator_point(), image=image)


def unit_kernel(ctx: VarContext, sig) -> KernelCongruence:
    """The all-true congruence: kernel of evaluation into a one-element algebra."""
    return KernelCongruence(unit_algebra(sig), ctx, tuple([0] * len(ctx)))


class LazyMeetKernel:
    """Meet of kernels kept as a list; membership is conjunction of memberships.

    Answers membership without generating the meet's image; meet_kernels
    builds the exact KernelCongruence.
    """

    __slots__ = ("kernels", "ctx")

    def __init__(self, kernels: Sequence[KernelCongruence]):
        if not kernels:
            raise ValueError("lazy meet needs at least one kernel")
        self.kernels = tuple(kernels)
        self.ctx = kernels[0].ctx

    def members(self, pairs: Iterable[Pair]) -> list[bool]:
        """Membership of each pair; a kernel only sees the pairs all earlier ones hold."""
        pairs = list(pairs)
        out = [True] * len(pairs)
        for k in self.kernels:
            live = [i for i, ok in enumerate(out) if ok]
            if not live:
                break
            for i, ok in zip(live, k.members([pairs[i] for i in live])):
                out[i] = ok
        return out

    def contains(self, pair: Pair) -> bool:
        return self.members([pair])[0]

    def __repr__(self) -> str:
        return f"LazyMeetKernel({len(self.kernels)} kernels)"


def meet_kernels(
    ks: Sequence[KernelCongruence],
    sig=None,
    ctx: Optional[VarContext] = None,
    cap: Optional[int] = None,
) -> KernelCongruence:
    """Meet of kernel congruences; empty input yields the unit congruence.

    The meet is the kernel onto the image of W(ctx) in the product of the
    targets: the subalgebra generated by the paired variable rows, never the
    whole product. Its members and table cells are charged against the cap
    as they are generated, and past the cap that generation raises
    CapExceeded.
    """
    if not ks:
        if sig is None or ctx is None:
            raise ValueError("empty meet needs an explicit signature and context")
        return unit_kernel(ctx, sig)
    first = ks[0]
    for k in ks[1:]:
        if k.ctx.vars != first.ctx.vars:
            raise ValueError("kernels must share a context")
    if len(ks) == 1:
        return first
    rows = [(s, tuple(k.assignment[i] for k in ks)) for i, (_, s) in enumerate(first.ctx.vars)]
    sub = generate(
        [k.target for k in ks], rows, first.ctx.names, get_cap(cap), stage="kernel meet image"
    )
    return generated_kernel(sub, first.ctx)


def kernel_of_point(p: Point, g: FiniteAlgebra, ctx: VarContext) -> KernelCongruence:
    return KernelCongruence(g, ctx, p)


def kernel_leq(k1: KernelCongruence, k2: KernelCongruence) -> bool:
    """Ker(phi1) included in Ker(phi2), decided by homomorphic factorization.

    Builds the image of phi1 and attempts the extension sending each variable
    row of k1 to the corresponding row of k2, a one-point extend_all;
    inclusion holds iff it exists.
    """
    if k1.ctx.vars != k2.ctx.vars:
        raise ValueError("kernel comparison needs a common context")
    flags, _ = k1.image().extend_all([k2.assignment], k2.target)
    return flags[0] == 1


class FinitePartitionCongruence:
    """A congruence on a finite algebra as dense block labels per sort."""

    __slots__ = ("algebra", "block_ids")

    def __init__(self, algebra: FiniteAlgebra, block_ids: Sequence[Sequence[int]], validate: bool = True):
        self.algebra = algebra
        self.block_ids = dense_blocks(algebra, block_ids)
        if validate:
            class_tables(self.algebra, self.block_ids)

    def same(self, sort: int, x: int, y: int) -> bool:
        return self.block_ids[sort][x] == self.block_ids[sort][y]

    def block_counts(self) -> tuple[int, ...]:
        return tuple(max(b, default=-1) + 1 if b else 1 for b in self.block_ids)

    def meet(self, other: "FinitePartitionCongruence") -> "FinitePartitionCongruence":
        if other.algebra is not self.algebra and other.algebra.digest() != self.algebra.digest():
            raise ValueError("meet needs partitions of the same algebra")
        blocks = [
            [ (a, b) for a, b in zip(self.block_ids[s], other.block_ids[s]) ]
            for s in range(len(self.algebra.sig.sorts))
        ]
        return FinitePartitionCongruence(self.algebra, blocks, validate=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePartitionCongruence)
            and self.algebra.digest() == other.algebra.digest()
            and self.block_ids == other.block_ids
        )

    def __hash__(self) -> int:
        return hash((self.algebra.digest(), self.block_ids))

    def __repr__(self) -> str:
        return f"FinitePartitionCongruence(blocks={self.block_ids})"


def unit_partition(g: FiniteAlgebra) -> FinitePartitionCongruence:
    return FinitePartitionCongruence(g, [[0] * n for n in g.sizes], validate=False)


def h_ker(
    g: FiniteAlgebra | GeneratedSubalgebra, h: FiniteAlgebra, cap: Optional[int] = None
) -> FinitePartitionCongruence:
    """Intersection of the kernels of all homomorphisms g -> h.

    g is an algebra, or a generation standing for its as_algebra(), which
    the partition is then on: the hom search starts from the generation's
    seeds, with no generator search (see algebras._hom_search). Each call of
    extend_all over a chunk of candidates labels the elements by their
    images under the homs it finds (_hom_kernel_labels), and the partition
    so far is met with those labels, so no list of homs is kept. With no
    homomorphisms at all the intersection is empty, hence the unit
    partition (everything congruent).
    """
    positions, extensions = _hom_search(g, h, cap)
    alg = g.as_algebra() if isinstance(g, GeneratedSubalgebra) else g
    blocks = [[0] * n for n in alg.sizes]
    for flags, cols in extensions:
        labels = _hom_kernel_labels(flags, cols, positions)
        blocks = dense_blocks(alg, [list(zip(old, new)) for old, new in zip(blocks, labels)])
    return FinitePartitionCongruence(alg, blocks, validate=False)


def _hom_kernel_labels(flags: bytes, cols: list[list], positions: Sequence[Sequence[int]]) -> list[list[tuple]]:
    """Each element's images under the homomorphisms one extend_all found.

    flags and cols are extend_all's result, and positions[s][e] is element
    e's member position. An element's label is its member's column at the
    flagged points, so two elements share one iff every homomorphism found
    identifies them: the labels are the blocks of the meet of those
    kernels, one block per sort when no flag is set.
    """
    return [[tuple(compress(col[p], flags)) for p in pos] for col, pos in zip(cols, positions)]
