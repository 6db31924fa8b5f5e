"""Point spaces: Hom(W(ctx), G) with its canonical enumeration, and subsets."""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .algebras import FiniteAlgebra, Point, enumerate_points
from .terms import VarContext

_FLAG = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def at_bits(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of mask (bit i selects items[i]), in order."""
    return compress(items, bin(mask).encode()[:1:-1].translate(_FLAG))


def flag_mask(flags: bytes) -> int:
    """The mask with bit i set iff flags[i] is 1; flags holds one 0 or 1 per point."""
    return int(flags[::-1].translate(_DIGIT), 2) if flags else 0


def _low_mask(n: int, stride: int, size: int) -> int:
    """Mask of the points i < n with i // stride % size == 0."""
    low, period = (1 << stride) - 1, stride * size
    while period < n:
        low |= low << period
        period *= 2
    return low & (1 << n) - 1


class GeoContext:
    """A fixed variable context together with a finite target algebra.

    Enumerates the full point space Hom(W(ctx), G) once, in lexicographic
    order; every PointSet over this context is a bitmask over that list.
    """

    __slots__ = ("g", "ctx", "points", "point_index", "full_mask", "_cylinders")

    def __init__(self, g: FiniteAlgebra, ctx: VarContext, cap: Optional[int] = None):
        self.g = g
        self.ctx = ctx
        self.points: tuple[Point, ...] = tuple(enumerate_points(ctx, g, cap))
        self.point_index: dict[Point, int] = {p: i for i, p in enumerate(self.points)}
        self.full_mask = (1 << len(self.points)) - 1
        self._cylinders: dict[str, tuple[range, int]] = {}

    @property
    def sig(self):
        return self.g.sig

    def cylindrify(self, a: "PointSet", ys: Iterable[str]) -> "PointSet":
        """The points that agree off ys with some point of a (cylinder_mask)."""
        self._check(a)
        return PointSet.of_mask(self, self.cylinder_mask(a.mask, ys))

    def cylinder_mask(self, mask: int, ys: Iterable[str]) -> int:
        """cylindrify on a mask of this context's points.

        One variable at a time: fold the slabs of the variable's values onto
        the slab where it is 0, then copy that slab back to every value.
        """
        for y in ys:
            shifts, low = self._cylinder(y)
            folded = mask & low
            for t in shifts:
                folded |= mask >> t & low
            mask = folded
            for t in shifts:
                mask |= folded << t
        return mask

    def _cylinder(self, y: str) -> tuple[range, int]:
        """(shifts, low) for variable y. Canonical point i has the value
        i // stride % size at y; low masks the points where that value is 0,
        and shifts holds t * stride for t = 1 .. size - 1, so mask >> t & low
        moves value t's slab onto value 0's. Built once per variable; low
        takes one bit per point."""
        hit = self._cylinders.get(y)
        if hit is None:
            if not self.ctx.has(y):
                raise ValueError(f"quantified variable {y!r} is not in the context")
            stride = 1
            for name, s in reversed(self.ctx.vars):
                size = self.g.sizes[s]
                if name == y:
                    break
                stride *= size
            low = _low_mask(len(self.points), stride, size)
            hit = self._cylinders[y] = (range(stride, stride * size, stride), low)
        return hit

    def preimage(self, image: Iterable[int]) -> Callable[["PointSet"], "PointSet"]:
        """For image[i], the index of the point that point i maps to, the
        map A -> {points whose image is in A}. Keeps one list entry per
        point; each application reads, for every point, A's binary digit at
        the point's image."""
        n = len(self.points)
        # digit k of a width-n binary numeral is the bit of point n - 1 - k
        gather = [n - 1 - i for i in image][::-1]
        if len(gather) != n:
            raise ValueError(f"{len(gather)} images for {n} points")
        width = f"0{n}b"

        def act(a: PointSet) -> PointSet:
            self._check(a)
            digits = format(a.mask, width)
            return PointSet.of_mask(self, int("".join([digits[k] for k in gather]), 2))

        return act

    def _check(self, a: "PointSet") -> None:
        if a.gctx is not self:
            raise ValueError("point sets live over different contexts")

    def full(self) -> "PointSet":
        return PointSet.of_mask(self, self.full_mask)

    def empty(self) -> "PointSet":
        return PointSet.of_mask(self, 0)

    def __repr__(self) -> str:
        vs = ",".join(self.ctx.names)
        return f"GeoContext({self.g.name}; {vs}; {len(self.points)} points)"


class PointSet:
    """A subset of a GeoContext's point space, stored as one int bitmask.

    Bit i of mask is set iff canonical point i (gctx.points[i]) belongs to
    the set, so union, meet, complement, subset tests, equality, hashing
    and size are int operations.
    """

    __slots__ = ("gctx", "mask")

    def __init__(self, gctx: GeoContext, indices: Iterable[int]):
        idx = frozenset(indices)
        lo, hi = (min(idx), max(idx)) if idx else (0, -1)
        if lo < 0 or hi >= len(gctx.points):
            raise ValueError(f"point index {lo if lo < 0 else hi} out of range")
        flags = bytearray(len(gctx.points))
        for i in idx:
            flags[i] = 1
        self.gctx = gctx
        self.mask = int(flags[::-1].translate(_DIGIT), 2)

    @classmethod
    def of_mask(cls, gctx: GeoContext, mask: int) -> "PointSet":
        """The set of points at the set bits of mask; a negative mask or a
        bit beyond the last point raises ValueError."""
        if mask & ~gctx.full_mask:
            raise ValueError(f"mask {mask:#x} out of range for {len(gctx.points)} points")
        ps = object.__new__(cls)
        ps.gctx = gctx
        ps.mask = mask
        return ps

    @classmethod
    def of_flags(cls, gctx: GeoContext, flags: Iterable[bool]) -> "PointSet":
        """The points i with flags[i] true; there is one flag per point."""
        b = bytes(flags)
        if len(b) != len(gctx.points):
            raise ValueError(f"{len(b)} flags for {len(gctx.points)} points")
        return cls.of_mask(gctx, flag_mask(b))

    @classmethod
    def of_points(cls, gctx: GeoContext, points: Iterable[Point]) -> "PointSet":
        return cls(gctx, (gctx.point_index[tuple(p)] for p in points))

    @property
    def indices(self) -> frozenset[int]:
        return frozenset(at_bits(range(len(self.gctx.points)), self.mask))

    def points(self) -> list[Point]:
        return list(at_bits(self.gctx.points, self.mask))

    def __contains__(self, p: Point) -> bool:
        i = self.gctx.point_index.get(tuple(p))
        return i is not None and self.mask >> i & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.points())

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.gctx is other.gctx and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((id(self.gctx), self.mask))

    def union(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet.of_mask(self.gctx, self.mask | other.mask)

    def intersection(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet.of_mask(self.gctx, self.mask & other.mask)

    def complement(self) -> "PointSet":
        return PointSet.of_mask(self.gctx, self.gctx.full_mask ^ self.mask)

    def issubset(self, other: "PointSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def _check(self, other: "PointSet") -> None:
        self.gctx._check(other)

    def __repr__(self) -> str:
        return f"PointSet({len(self)}/{len(self.gctx.points)} points)"
