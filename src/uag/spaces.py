"""Point spaces: Hom(W(ctx), G) with its canonical enumeration, and subsets."""

from __future__ import annotations

from typing import Iterable, Optional

from .algebras import FiniteAlgebra, Point, enumerate_points
from .terms import VarContext


class GeoContext:
    """A fixed variable context together with a finite target algebra.

    Enumerates the full point space Hom(W(ctx), G) once, in lexicographic
    order; every PointSet over this context stores indices into that list.
    """

    __slots__ = ("g", "ctx", "points", "point_index")

    def __init__(self, g: FiniteAlgebra, ctx: VarContext, cap: Optional[int] = None):
        self.g = g
        self.ctx = ctx
        self.points: tuple[Point, ...] = tuple(enumerate_points(ctx, g, cap))
        self.point_index: dict[Point, int] = {p: i for i, p in enumerate(self.points)}

    @property
    def sig(self):
        return self.g.sig

    def full(self) -> "PointSet":
        return PointSet(self, range(len(self.points)))

    def empty(self) -> "PointSet":
        return PointSet(self, ())

    def __repr__(self) -> str:
        vs = ",".join(self.ctx.names)
        return f"GeoContext({self.g.name}; {vs}; {len(self.points)} points)"


class PointSet:
    """A subset of a GeoContext's point space, stored as canonical indices."""

    __slots__ = ("gctx", "indices")

    def __init__(self, gctx: GeoContext, indices: Iterable[int]):
        idx = frozenset(indices)
        lo, hi = (min(idx), max(idx)) if idx else (0, -1)
        if lo < 0 or hi >= len(gctx.points):
            raise ValueError(f"point index {lo if lo < 0 else hi} out of range")
        self.gctx = gctx
        self.indices = idx

    @classmethod
    def of_points(cls, gctx: GeoContext, points: Iterable[Point]) -> "PointSet":
        return cls(gctx, (gctx.point_index[tuple(p)] for p in points))

    def points(self) -> list[Point]:
        return [self.gctx.points[i] for i in sorted(self.indices)]

    def __contains__(self, p: Point) -> bool:
        i = self.gctx.point_index.get(tuple(p))
        return i is not None and i in self.indices

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.points())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.gctx is other.gctx
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash((id(self.gctx), self.indices))

    def union(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.gctx, self.indices | other.indices)

    def intersection(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.gctx, self.indices & other.indices)

    def complement(self) -> "PointSet":
        return PointSet(self.gctx, set(range(len(self.gctx.points))) - self.indices)

    def issubset(self, other: "PointSet") -> bool:
        self._check(other)
        return self.indices <= other.indices

    def _check(self, other: "PointSet") -> None:
        if self.gctx is not other.gctx:
            raise ValueError("point sets live over different contexts")

    def __repr__(self) -> str:
        return f"PointSet({len(self.indices)}/{len(self.gctx.points)} points)"
