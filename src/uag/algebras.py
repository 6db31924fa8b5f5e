"""Finite algebras with total operation tables, points, homomorphism search.

Elements are dense integers 0..n-1 per sort. Algebras are immutable after
validation, and keep their tables once, as nested rows. A Point is a tuple
aligned with a VarContext's variable order; evaluating a term at a point is
the homomorphic extension W(X) -> G.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import struct
from operator import getitem, itemgetter, ne
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .config import CapExceeded, check_cap
from .terms import (
    Op,
    Signature,
    Term,
    Var,
    VarContext,
    app,
    check_same_sort,
    constant_name,
    postorder,
    var,
)

Point = tuple[int, ...]


class FiniteAlgebra:
    """Total operation tables, given keyed by argument tuples, checked and
    stored as nested rows in one pass; tables is a read-only view of them.

    The constructor is for tables from outside the package. Rows the package
    builds, the stock algebras' among them, are total and in range by
    construction and go to _total unchecked."""

    __slots__ = ("sig", "sizes", "name", "_nested", "_tables", "_digest", "_bytes", "_generation")

    def __init__(
        self,
        sig: Signature,
        sizes: Sequence[int],
        tables: Mapping[str, Mapping[tuple[int, ...], int]],
        name: str = "G",
    ):
        sizes = tuple(sizes)
        if len(sizes) != len(sig.sorts):
            raise ValueError("one carrier size per sort required")
        if any(n < 1 for n in sizes):
            raise ValueError("carriers must be nonempty")
        nested = {}
        for op in sig.ops:
            try:
                table = dict(tables[op.name])
            except KeyError:
                raise ValueError(f"missing table for op {op.name!r}") from None
            dims = [sizes[s] for s in op.args]
            if len(table) != math.prod(dims):
                raise ValueError(f"table for {op.name!r} has {len(table)} rows, expected {math.prod(dims)}")
            flat, n = [], sizes[op.result]
            for args in itertools.product(*map(range, dims)):
                v = table.get(args, -1)
                if not 0 <= v < n:
                    if args not in table:
                        raise ValueError(f"table for {op.name!r} missing entry {args}")
                    raise ValueError(f"table for {op.name!r} at {args}: result out of range")
                flat.append(v)
            nested[op.name] = _nested_rows(flat, dims)
        _fill(self, sig, sizes, nested, name)

    def digest(self) -> str:
        if self._digest is None:
            h = hashlib.sha256()
            h.update(repr(self.sig.sorts).encode())
            h.update(repr(self.sizes).encode())
            for op in self.sig.ops:
                h.update(repr((op.name, op.args, op.result)).encode())
                h.update(repr(list(self.rows(op))).encode())
            self._digest = h.hexdigest()[:12]
        return self._digest

    def nested(self) -> dict:
        """Every op's table as nested lists indexed one argument at a time.

        nested()["mul"][a][b] is mul(a, b); a nullary op maps to its value.
        """
        return self._nested

    @property
    def tables(self) -> Mapping[str, Mapping[tuple[int, ...], int]]:
        """Every op's table keyed by argument tuples: a read-only view of the
        rows, its items in lexicographic order, built on its first read."""
        if self._tables is None:
            self._tables = MappingProxyType({op.name: MappingProxyType(dict(self.rows(op))) for op in self.sig.ops})
        return self._tables

    def rows(self, op: Op) -> Iterator[tuple[tuple[int, ...], int]]:
        """op's table as (arguments, value) pairs, in lexicographic order."""
        flat = self._nested[op.name]
        if not op.args:
            return iter([((), flat)])
        for _ in op.args[1:]:
            flat = itertools.chain.from_iterable(flat)
        return zip(itertools.product(*[range(self.sizes[s]) for s in op.args]), flat)

    def byte_tables(self) -> Optional[dict]:
        """Every op's table for byte-column generation (see _ByteCells).

        A nullary op keeps its value and a unary op becomes a 256-byte
        translation table. A binary op becomes the pair (times, flat): times
        sends a to a * n_b, flat sends a * n_b + b to op(a, b). None past the
        byte bound: a sort of more than 256 elements, an op of arity 3 or
        more, or a binary op with n_a * n_b > 256.
        """
        if self._bytes is False:
            self._bytes = _byte_tables(self)
        return self._bytes

    def generation(self) -> "GeneratedSubalgebra":
        """The whole algebra generated from its greedy generating set (see
        _greedy_generators), members its elements: where enumerate_homs
        starts. Built on the first call and kept."""
        if self._generation is None:
            self._generation = _greedy_generators(self)
        return self._generation

    def apply(self, op_name: str, args: Sequence[int]) -> int:
        return functools.reduce(getitem, args, self._nested[op_name])

    def __repr__(self) -> str:
        return f"FiniteAlgebra({self.name}, sizes={self.sizes})"


def _fill(g: FiniteAlgebra, sig: Signature, sizes: tuple[int, ...], nested: dict, name: str) -> FiniteAlgebra:
    """Sets g's fields; every cache starts empty."""
    g.sig, g.sizes, g.name, g._nested = sig, sizes, name, nested
    g._tables = g._digest = g._generation = None
    g._bytes = False  # False until byte_tables() runs
    return g


def _total(sig: Signature, sizes: Sequence[int], nested: dict, name: str) -> FiniteAlgebra:
    """The algebra of rows laid out as nested() returns them, unchecked: for
    callers whose rows are total and in range, over nonempty carriers, by
    construction."""
    return _fill(FiniteAlgebra.__new__(FiniteAlgebra), sig, tuple(sizes), nested, name)


def _nested_rows(flat: list, dims: Sequence[int]):
    """A table's values, listed in lexicographic order of their arguments, as nested rows."""
    for n in reversed(dims[1:]):
        flat = [flat[i : i + n] for i in range(0, len(flat), n)]
    return flat if dims else flat[0]


def unit_algebra(sig: Signature, name: str = "unit") -> FiniteAlgebra:
    return _total(sig, (1,) * len(sig.sorts), {op.name: _nested_rows([0], [1] * op.arity) for op in sig.ops}, name)


def eval_columns(
    terms: Sequence[Term], points: Sequence[Point], g: FiniteAlgebra, ctx: VarContext
) -> list[tuple[int, list[int]]]:
    """Each term's sort and its value at every point, one (sort, column) per term.

    This is the one term evaluator: a single assignment is a one-point list.
    Each distinct subterm's column is computed once, by one step of the
    column engine (_cells), and its sort is checked on the way, with or
    without points; the columns are returned as lists. Unknown variables
    and ops, wrong arities and ill-sorted arguments raise ValueError.
    """
    return [(s, list(col)) for s, col in _eval_columns(terms, points, g, ctx, {})]


def _eval_columns(
    terms: Sequence[Term], points: Sequence[Point], g: FiniteAlgebra, ctx: VarContext, memo: dict
) -> list[tuple[int, bytes | tuple[int, ...]]]:
    """eval_columns with the memo, by term id, given, and each column kept as
    the engine keeps a member of g to the power of the points: bytes within
    g's byte bound at two points or more, a tuple otherwise, empty at none.
    Callers that evaluate several term families over one point list and
    context share one memo; it also keeps, under the key None, the engine
    for that point list, built on the first call.

    Each term's distinct subterms are evaluated in its postorder, each one
    in the step extend_all takes for a generated member: a variable is a
    column of the points' coordinates, and an op one engine apply over its
    arguments' columns (the engine's members list is unused). An ill-formed
    subterm's entry holds its error message in place of a sort. No argument
    sort equals a message, so a parent passes on the message of its first
    argument that is ill-formed or of the wrong sort, and a term raises the
    error a left-to-right recursion from its root meets first.
    """
    sig, ops = g.sig, g.sig.by_name
    engine = memo.get(None)
    if engine is None and points:
        engine = memo[None] = _cells([g] * len(points), [])
    for t in terms:
        if id(t) in memo:
            continue
        for u in postorder(t):
            if id(u) in memo:
                continue
            if isinstance(u, Var):
                if ctx.has(u.name):
                    i = ctx.position(u.name)
                    hit = ctx.vars[i][1], () if engine is None else engine.column(map(itemgetter(i), points))
                else:
                    hit = f"unknown variable {u.name!r}", None
            else:
                op, args = ops.get(u.op), u.args
                if op is None:
                    hit = f"unknown op {u.op!r}", None
                elif len(args) != len(op.args):
                    hit = f"op {u.op!r}: expected {len(op.args)} arguments, got {len(args)}", None
                else:
                    arg_cols = []
                    for want, a in zip(op.args, args):
                        got, col = memo[id(a)]
                        if got != want:
                            if not isinstance(got, str):
                                got = f"op {u.op!r}: argument of sort {sig.sorts[got]!r}, expected {sig.sorts[want]!r}"
                            hit = got, None
                            break
                        arg_cols.append(col)
                    else:
                        hit = op.result, () if engine is None else engine.apply(op, arg_cols)
            memo[id(u)] = hit
    cols = [memo[id(t)] for t in terms]
    for s, _ in cols:
        if isinstance(s, str):
            raise ValueError(s)
    return cols


def eval_pairs(
    pairs: Iterable[tuple[Term, Term]], points: Sequence[Point], g: FiniteAlgebra, ctx: VarContext
) -> list[tuple[bytes | tuple[int, ...], bytes | tuple[int, ...]]]:
    """Both sides' columns for each equation, from one _eval_columns call,
    kept as the engine keeps them: compare them whole, or read where they
    agree with agree_mask.

    Raises ValueError when an equation's sides have different sorts.
    """
    pairs = list(pairs)
    cols = _eval_columns([t for pair in pairs for t in pair], points, g, ctx, {})
    out = []
    for (w, w2), (s, lhs), (s2, rhs) in zip(pairs, cols[::2], cols[1::2]):
        check_same_sort(w, w2, s, s2, g.sig)
        out.append((lhs, rhs))
    return out


_ZERO_IS_DIGIT_ONE = b"1" + b"0" * 255  # translate: 0 -> "1", anything else -> "0"


def agree_mask(lhs: bytes | tuple[int, ...], rhs: bytes | tuple[int, ...]) -> int:
    """The points where two columns of _eval_columns agree, as a mask: bit i
    is set iff lhs[i] == rhs[i].

    Byte columns are compared by one XOR of the ints they spell, read
    back least significant byte first, so the binary digits come out in
    the mask's order; tuple columns one entry at a time.
    """
    if isinstance(lhs, bytes):
        digits = (int.from_bytes(lhs, "little") ^ int.from_bytes(rhs, "little")).to_bytes(len(lhs), "big")
    else:
        digits = bytes(map(ne, reversed(lhs), reversed(rhs)))
    return int(digits.translate(_ZERO_IS_DIGIT_ONE), 2) if digits else 0


def point_count(ctx: VarContext, g: FiniteAlgebra) -> int:
    n = 1
    for _, s in ctx.vars:
        n *= g.sizes[s]
    return n


def enumerate_points(ctx: VarContext, g: FiniteAlgebra, cap: Optional[int] = None) -> list[Point]:
    """All points in lexicographic order of the declared variable order."""
    check_cap("point enumeration", point_count(ctx, g), cap)
    return list(itertools.product(*[range(g.sizes[s]) for _, s in ctx.vars]))


class GeneratedSubalgebra:
    """The subalgebra of a product of factor algebras generated by seed rows.

    Built by generate(). Members of each sort are kept in discovery order. A
    member is a row with one entry per factor, except in subalgebras of a
    single algebra (subalgebra_generated), whose members are its elements.
    cells holds every op's table over member positions as nested lists (the
    result position itself for a nullary op); origin lists each generated
    member's sort, op and generating cell, in discovery order. index, each
    sort's member -> position map, and witnesses are built on first read.
    """

    __slots__ = (
        "sig", "members", "_index", "_witnesses", "gen_vars", "seeds", "cells", "origin", "name", "_alg"
    )

    def __init__(self, sig, members, gen_vars, seeds, cells, origin, name):
        self.sig: Signature = sig
        self.members: tuple[tuple, ...] = members
        self._index: Optional[list[dict]] = None
        self._witnesses: Optional[tuple[tuple[Term, ...], ...]] = None
        self.gen_vars: tuple[tuple[str, int, object], ...] = gen_vars
        self.seeds: tuple[tuple[int, int], ...] = seeds
        self.cells: dict[str, object] = cells
        self.origin: list[tuple[int, Op, tuple[int, ...]]] = origin
        self.name = name
        self._alg: Optional[FiniteAlgebra] = None

    @property
    def index(self) -> list[dict]:
        if self._index is None:
            self._index = [dict(zip(ms, itertools.count())) for ms in self.members]
        return self._index

    def contains(self, sort: int, element) -> bool:
        return element in self.index[sort]

    def size(self) -> int:
        return sum(len(m) for m in self.members)

    @property
    def witnesses(self) -> tuple[tuple[Term, ...], ...]:
        """Each member's witness term over the generator variables, aligned
        with members: breadth-first shortest, ties broken by op declaration
        order then argument order. Read off in extend_all's walk, and interned,
        on the first read: a seed that opens a position is its variable, and
        each origin entry applies its op to its cell's witnesses."""
        if self._witnesses is None:
            wit: list[list[Term]] = [[] for _ in self.members]
            for (name, _, _), (s, pos) in zip(self.gen_vars, self.seeds):
                if pos == len(wit[s]):
                    wit[s].append(var(name))
            for s, op, combo in self.origin:
                wit[s].append(app(op.name, *map(getitem, map(wit.__getitem__, op.args), combo)))
            self._witnesses = tuple(map(tuple, wit))
        return self._witnesses

    def witness_of(self, sort: int, element) -> Term:
        return self.witnesses[sort][self.index[sort][element]]

    def as_algebra(self) -> FiniteAlgebra:
        """The members as an algebra, each one renamed to its position.

        A sort with no members has no term over the generators, and an
        algebra cannot have an empty carrier: that raises ValueError.
        """
        if self._alg is None:
            sizes = tuple(len(m) for m in self.members)
            if 0 in sizes:
                sort = self.sig.sorts[sizes.index(0)]
                raise ValueError(f"sort {sort!r} has no term over the generators")
            self._alg = _total(self.sig, sizes, self.cells, self.name)
        return self._alg

    def _renamed(self, members) -> "GeneratedSubalgebra":
        gen_vars = tuple((name, s, members[s][pos]) for (name, _, _), (s, pos) in zip(self.gen_vars, self.seeds))
        out = GeneratedSubalgebra(self.sig, members, gen_vars, self.seeds, self.cells, self.origin, self.name)
        out._alg, out._witnesses = self._alg, self._witnesses
        return out

    def generator_context(self) -> VarContext:
        sig = self.sig
        return VarContext(sig, [(name, sig.sorts[s]) for name, s, _ in self.gen_vars])

    def generator_point(self) -> Point:
        """Generator assignment into as_algebra(), aligned with generator_context()."""
        return tuple(pos for _, pos in self.seeds)

    def extend_all(self, points: Sequence[Point], b: FiniteAlgebra) -> tuple[bytes, list[list]]:
        """The homomorphism into b sending generator i to p[i], at every point p at once.

        Returns (flags, columns): flags[j] is 1 if it exists at points[j] and
        0 if not, and columns[s][pos] holds member pos's image at every point
        (read it only where the flag is 1), kept as _cells keeps a member of
        b to the power of the points: bytes or a tuple.

        A generator's column is its coordinate across the points, and each
        generated member's column is one step over its generating cell's
        columns. Then every op-table row is checked at all points at once:
        its k cells, computed by one step, against its result members'
        columns. Their difference is OR-ed into a k*n-byte accumulator,
        folded to n bytes at the end; a point extends iff its byte is 0. Two
        generators on one seed position are checked the same way.
        """
        n = len(points)
        cols: list[list] = [[] for _ in self.members]
        engine = _cells([b] * n, cols)
        wrong: dict[int, int] = {}  # k -> the accumulator of the rows of k cells

        def check(got, want: list) -> None:
            wrong[len(want)] = wrong.get(len(want), 0) | engine.differ(got, want)

        for i, (s, pos) in enumerate(self.seeds):
            col = engine.column(map(itemgetter(i), points))
            if pos == len(cols[s]):
                cols[s].append(col)
            else:
                check(col, [cols[s][pos]])
        for s, op, combo in self.origin:
            cols[s].append(engine.apply(op, list(map(getitem, map(cols.__getitem__, op.args), combo))))
        for op in self.sig.ops:
            results, cells = cols[op.result], self.cells[op.name]
            if not op.args:
                check(engine.constant(op), [results[cells]])
                continue
            for prefix, row in _cell_rows(cells, len(op.args)):
                check(engine.joined(op, prefix, range(len(row))), list(map(results.__getitem__, row)))
        fold = 0
        for k, acc in wrong.items():
            acc = acc.to_bytes(k * n, "big")
            for j in range(k):
                fold |= int.from_bytes(acc[j * n : (j + 1) * n], "big")
        return fold.to_bytes(n, "big").translate(_ZERO_IS_ONE), cols


_ZERO_IS_ONE = bytes((1,)) + bytes(255)  # translate: 0 -> 1, anything else -> 0


def _cell_rows(cells, arity: int, prefix: tuple[int, ...] = ()):
    """(prefix, the row's result positions) for each nonempty cell row."""
    if arity == 1:
        if cells:
            yield prefix, cells
        return
    for i, sub in enumerate(cells):
        yield from _cell_rows(sub, arity - 1, (*prefix, i))


class _Stop(Exception):
    pass


def generate(
    factors: Sequence[FiniteAlgebra],
    seeds: Sequence[tuple[int, tuple[int, ...]]],
    names: Sequence[str],
    budget: Optional[int] = None,
    stage: str = "generation",
    watch: Optional[Callable[[int, Sequence[int]], bool]] = None,
    name: Optional[str] = None,
) -> GeneratedSubalgebra:
    """The subalgebra of the product of the factors generated by seed rows.

    seeds are (sort, row) pairs, named by names. Generation goes in rounds;
    each round visits, in lexicographic order of member positions, only the
    argument combos that touch a member added in the previous round (nullary
    ops in round one), so every cell is computed once and recorded. A budget
    bounds members and cells alike: the member past it raises
    CapExceeded("<stage> members"), and a cell computed past it
    CapExceeded("<stage> tables"). No term is built: witnesses are read off
    the result's seeds and origin when asked for.

    watch sees each new member, as _cells keeps it (entry i is factor i's),
    before it is added. If it returns true, that member is recorded, with its
    origin entry or its seed position but not charged, and the generation
    so far is returned: its cells are incomplete.

    With a budget and no watch, each round that adds members ends by
    projecting the cells its members already span, the sum over ops of the
    product of their argument sorts' member counts (1 for a nullary op),
    and raises CapExceeded("<stage> tables") with that count once it
    passes budget. This is sound: such a run charges every cell among its
    final members exactly once, and members only grow, so the run would
    pass budget later anyway. Which runs raise is unchanged; they raise
    sooner, before computing the cells they could not keep.

    _cells picks how a member is kept while generating, as a bytes column
    or a tuple row, and computes each run's cells; everything else, the
    members of the result (tuple rows) among it, is the same either way.
    """
    sig = _common_sig(factors)
    nsorts = len(sig.sorts)
    members: list[list] = [[] for _ in range(nsorts)]
    index: list[dict] = [{} for _ in range(nsorts)]
    origin: list[tuple[int, Op, tuple[int, ...]]] = []
    cells: dict[str, object] = {op.name: [] for op in sig.ops}
    seed_pos: list[tuple[int, int]] = []
    engine = _cells(factors, members)
    total = charged = 0

    def add(s: int, key, op: Optional[Op], combo: tuple[int, ...] = ()) -> int:
        """Adds a member made by op from the members at combo, or a seed (op None)."""
        nonlocal total
        pos = len(members[s])
        stop = watch is not None and watch(s, key)
        index[s][key] = pos
        members[s].append(key)
        if op is not None:
            origin.append((s, op, combo))
        if stop:
            raise _Stop
        total += 1
        if budget is not None and total > budget:
            raise CapExceeded(f"{stage} members", total, budget)
        return pos

    def charge(n: int) -> None:
        nonlocal charged
        charged += n
        if budget is not None and charged > budget:
            raise CapExceeded(f"{stage} tables", charged, budget)

    try:
        for s, row in seeds:
            key = engine.column(row)
            pos = index[s].get(key)
            seed_pos.append((s, len(members[s]) if pos is None else pos))
            if pos is None:
                add(s, key, None)
        old = [0] * nsorts
        first = True
        while True:
            cur = [len(m) for m in members]
            for op in sig.ops:
                idx, arg_sorts = index[op.result], op.args
                if not arg_sorts:
                    if first:
                        charge(1)
                        key = engine.constant(op)
                        pos = idx.get(key)
                        cells[op.name] = add(op.result, key, op) if pos is None else pos
                    continue
                for prefix, span, row in _round_runs(
                    cells[op.name], [old[s] for s in arg_sorts], [cur[s] for s in arg_sorts], False
                ):
                    charge(len(span))
                    keys = engine.run(op, prefix, span)
                    found = list(map(idx.get, keys))
                    if None not in found:  # no new member: the whole row at once
                        row.extend(found)
                        continue
                    for j, key in zip(span, keys):
                        pos = idx.get(key)
                        row.append(add(op.result, key, op, (*prefix, j)) if pos is None else pos)
            first = False
            sizes = [len(m) for m in members]
            if sizes == cur:
                break
            if watch is None and budget is not None:
                need = sum(math.prod(sizes[a] for a in op.args) for op in sig.ops)
                if need > budget:
                    raise CapExceeded(f"{stage} tables", need, budget)
            old = cur
    except _Stop:
        pass
    return GeneratedSubalgebra(
        sig,
        tuple(tuple(map(tuple, ms)) for ms in members),
        tuple((gen_name, s, row) for (s, row), gen_name in zip(seeds, names)),
        tuple(seed_pos),
        cells,
        origin,
        name or "sub(" + "x".join(f.name for f in factors) + ")",
    )


def _cells(factors: Sequence[FiniteAlgebra], members: list[list]) -> "_ByteCells | _TupleCells":
    """How members of the product of the factors are kept and stepped.

    A power G^N of one algebra object (N >= 2) within G's byte bound
    (FiniteAlgebra.byte_tables) keeps each member as one bytes column
    (_ByteCells); any other product keeps tuple rows (_TupleCells). Either
    way a member's entry for factor i is member[i]. members is the caller's
    list of each sort's members, read by position.
    """
    g = factors[0]
    if len(factors) > 1 and factors.count(g) == len(factors):
        tables = g.byte_tables()
        if tables is not None:
            return _ByteCells(tables, len(factors), members)
    return _TupleCells(factors, members)


class _ByteCells:
    """Cells over a power G^N within the byte bound: a member is one bytes column.

    The same steps compute hom images and term values at N points at once,
    a member's image or a term's value being one bytes column too
    (GeneratedSubalgebra.extend_all, _eval_columns); apply takes such a
    step on one column per argument, a run of one cell.
    A run works on the members in its span laid end to end, N bytes each.
    A unary op is one translate of that string. A binary op reads each cell
    u, v as the base-256 numeral of (u * n_b + v) at every point, which no
    carry crosses since u * n_b + v < n_a * n_b <= 256: U, the first
    argument scaled by n_b and repeated once per cell, is one int per
    prefix; V, the span's second arguments, one int per span, kept while
    runs repeat the span; then U + V is written back to bytes and translated
    through the flat table. joined returns that string; run cuts it into
    N-byte cells with one struct unpack.
    """

    def __init__(self, tables: dict[str, object], n: int, members: list[list]):
        self.tables, self.n, self.members = tables, n, members
        self.spans: dict[int, tuple[range, int]] = {}  # sort -> (span, V) of its last run
        self.cut = 0, struct.Struct("").unpack  # (cell count, splitter) of the last run

    def column(self, entries: Iterable[int]) -> bytes:
        """A member from its entries."""
        return bytes(entries)

    def constant(self, op: Op) -> bytes:
        """The member a nullary op names."""
        return bytes((self.tables[op.name],)) * self.n

    def apply(self, op: Op, args: Sequence[bytes]) -> bytes:
        """op at one member of each argument sort, given as their columns:
        the constant, one translate, or one big-int add and one translate."""
        if not args:
            return self.constant(op)
        table = self.tables[op.name]
        if len(args) == 1:
            return args[0].translate(table)
        times, flat = table
        u = int.from_bytes(args[0].translate(times), "big")
        return (u + int.from_bytes(args[1], "big")).to_bytes(self.n, "big").translate(flat)

    def run(self, op: Op, prefix: tuple[int, ...], span: range) -> tuple[bytes, ...]:
        """The cells of op at prefix followed by each last-argument position in span."""
        out = self.joined(op, prefix, span)
        if self.cut[0] != len(span):
            self.cut = len(span), struct.Struct(f"{self.n}s" * len(span)).unpack
        return self.cut[1](out)

    def joined(self, op: Op, prefix: tuple[int, ...], span: range) -> bytes:
        """The cells of run, laid end to end."""
        table, s, n = self.tables[op.name], op.args[-1], self.n
        if not prefix:
            return b"".join(self.members[s][span.start : span.stop]).translate(table)
        times, flat = table
        hit = self.spans.get(s)
        if hit is None or hit[0] != span:
            hit = span, int.from_bytes(b"".join(self.members[s][span.start : span.stop]), "big")
            self.spans[s] = hit
        u = int.from_bytes(self.members[op.args[0]][prefix[0]].translate(times) * len(span), "big")
        return (u + hit[1]).to_bytes(n * len(span), "big").translate(flat)

    def differ(self, got: bytes, want: list[bytes]) -> int:
        """An int whose byte is nonzero wherever got, a joined run, differs
        from the members in want laid end to end."""
        return int.from_bytes(got, "big") ^ int.from_bytes(b"".join(want), "big")


class _TupleCells:
    """Cells over any product of factors: a member is a tuple row, one entry
    per factor. Same methods as _ByteCells.

    A run reads its cells off the factors' nested() tables: the prefix picks
    one table row per factor, and each cell maps those rows over the entries
    of its last argument.
    """

    def __init__(self, factors: Sequence[FiniteAlgebra], members: list[list]):
        self.tables = {op.name: [f.nested()[op.name] for f in factors] for op in factors[0].sig.ops}
        self.members = members

    def column(self, entries: Iterable[int]) -> tuple[int, ...]:
        return tuple(entries)

    def constant(self, op: Op) -> tuple[int, ...]:
        return tuple(self.tables[op.name])

    def apply(self, op: Op, args: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
        """op at one member of each argument sort: each argument's entries
        pick the next table row per factor."""
        leaf = self.tables[op.name]
        for col in args:
            leaf = list(map(getitem, leaf, col))
        return tuple(leaf)

    def run(self, op: Op, prefix: tuple[int, ...], span: range) -> list[tuple[int, ...]]:
        leaf, members = self.tables[op.name], self.members
        for a, i in zip(op.args, prefix):
            leaf = list(map(getitem, leaf, members[a][i]))
        return [tuple(map(getitem, leaf, row)) for row in members[op.args[-1]][span.start : span.stop]]

    def joined(self, op: Op, prefix: tuple[int, ...], span: range) -> tuple[int, ...]:
        return tuple(itertools.chain.from_iterable(self.run(op, prefix, span)))

    def differ(self, got: tuple[int, ...], want: list[tuple[int, ...]]) -> int:
        return int.from_bytes(bytes(map(ne, got, itertools.chain.from_iterable(want))), "big")


def _byte_tables(g: FiniteAlgebra) -> Optional[dict[str, object]]:
    if max(g.sizes) > 256:
        return None
    pad = bytes(256)
    tables: dict[str, object] = {}
    for op in g.sig.ops:
        t = g.nested()[op.name]
        if not op.args:
            tables[op.name] = t
        elif len(op.args) == 1:
            tables[op.name] = (bytes(t) + pad)[:256]
        elif len(op.args) == 2 and g.sizes[op.args[0]] * g.sizes[op.args[1]] <= 256:
            nb = g.sizes[op.args[1]]
            times = bytes(a * nb for a in range(g.sizes[op.args[0]]))
            tables[op.name] = ((times + pad)[:256], (bytes(itertools.chain.from_iterable(t)) + pad)[:256])
        else:
            return None
    return tables


def _round_runs(cells: list, olds: Sequence[int], curs: Sequence[int], fresh: bool):
    """(prefix, last-index range, cell row) runs of one round, lexicographically.

    Covers the index tuples below curs with some index at or above olds (any,
    once fresh); the row is where their cells go, created when first reached.
    """
    if len(curs) == 1:
        yield (), range(0 if fresh else olds[0], curs[0]), cells
        return
    for i in range(curs[0]):
        if i == len(cells):
            cells.append([])
        for prefix, span, row in _round_runs(cells[i], olds[1:], curs[1:], fresh or i >= olds[0]):
            yield (i, *prefix), span, row


def _normalize_seed(g: FiniteAlgebra, seed) -> list[tuple[int, int]]:
    out = []
    for item in seed:
        if isinstance(item, int):
            if len(g.sig.sorts) != 1:
                raise ValueError("bare-int seed requires a single-sorted signature")
            out.append((0, item))
        else:
            out.append((int(item[0]), int(item[1])))
    for s, e in out:
        if not 0 <= e < g.sizes[s]:
            raise ValueError(f"seed element {e} out of range for sort {s}")
    return out


def subalgebra_generated(
    g: FiniteAlgebra, seed, gen_names: Optional[Sequence[str]] = None
) -> GeneratedSubalgebra:
    seeds = _normalize_seed(g, seed)
    if gen_names is None:
        gen_names = [f"g{i}" for i in range(len(seeds))]
    elif len(gen_names) != len(seeds):
        raise ValueError("one generator name per seed element required")
    rows = generate((g,), [(s, (e,)) for s, e in seeds], gen_names, name=f"sub({g.name})")
    return rows._renamed(tuple(tuple(row[0] for row in ms) for ms in rows.members))


def _greedy_generators(g: FiniteAlgebra) -> GeneratedSubalgebra:
    """g generated from a greedy generating set, its seeds: while some
    element is not generated, the first one, in sort then element order,
    joins the set."""
    gens: list[tuple[int, int]] = []
    sub = subalgebra_generated(g, gens)
    total = sum(g.sizes)
    while sub.size() < total:
        found = None
        for s in range(len(g.sig.sorts)):
            for e in range(g.sizes[s]):
                if not sub.contains(s, e):
                    found = (s, e)
                    break
            if found:
                break
        assert found is not None
        gens.append(found)
        sub = subalgebra_generated(g, gens)
    return sub


def enumerate_homs(
    a: FiniteAlgebra | GeneratedSubalgebra, b: FiniteAlgebra, cap: Optional[int] = None
) -> list[tuple[tuple[int, ...], ...]]:
    """All homomorphisms a -> b as dense per-sort image tuples, sorted.

    a is an algebra, or a generation standing for its as_algebra(); the
    search is _hom_search's. The result does not depend on the generating
    family searched, but the candidates the cap counts do. Every returned
    map is verified against all operation tables.
    """
    positions, extensions = _hom_search(a, b, cap)
    out = []
    for ok, cols in extensions:
        per_sort = [itertools.compress(zip(*map(col.__getitem__, pos)), ok) for col, pos in zip(cols, positions)]
        out.extend(zip(*per_sort))
    out.sort()
    return out


def _hom_search(
    a: FiniteAlgebra | GeneratedSubalgebra, b: FiniteAlgebra, cap: Optional[int]
) -> tuple[list, Iterator[tuple[bytes, list[list]]]]:
    """The hom search of enumerate_homs and congruences.h_ker: (positions,
    extensions), after the signature and the cap are checked.

    a is an algebra, or a generation standing for its as_algebra(), whose
    elements are member positions (a sort with no member raises its
    ValueError). The search starts from a generation: a's own seeds, or an
    algebra's greedy set, found once per algebra object
    (FiniteAlgebra.generation). positions[s][e] is element e's member
    position in it. extensions yields extend_all's (flags, columns) over
    _hom_candidates, 4096 candidates per call, so the columns stay small
    however many candidates the cap admits.
    """
    if a.sig is not b.sig and (a.sig.sorts, a.sig.ops) != (b.sig.sorts, b.sig.ops):
        raise ValueError("homomorphisms require a common signature")
    if isinstance(a, GeneratedSubalgebra):
        sub, positions = a, [range(n) for n in a.as_algebra().sizes]
    else:
        sub = a.generation()
        positions = [[sub.index[s][e] for e in range(n)] for s, n in enumerate(a.sizes)]
    candidates = _hom_candidates(sub, b, cap)

    def extensions():
        while chunk := list(itertools.islice(candidates, 4096)):
            yield sub.extend_all(chunk, b)

    return positions, extensions()


def _hom_candidates(sub: GeneratedSubalgebra, b: FiniteAlgebra, cap: Optional[int]) -> Iterator[Point]:
    """The images of sub's seeds in b that a homomorphism could take, in
    lexicographic order, once their count is charged against the cap
    (stage "hom search").

    A seed that shares its member with a constant or an earlier seed has
    one possible image, so only the other seeds are searched and counted.
    """
    fixed = {(op.result, sub.cells[op.name]): b.nested()[op.name] for op in sub.sig.ops if not op.args}
    free = list(dict.fromkeys(seed for seed in sub.seeds if seed not in fixed))
    check_cap("hom search", math.prod(b.sizes[s] for s, _ in free), cap)
    candidates = itertools.product(*[range(b.sizes[s]) for s, _ in free])
    if len(free) < len(sub.seeds):
        slot = {seed: i for i, seed in enumerate([*free, *fixed])}
        pick, tail = [slot[seed] for seed in sub.seeds], tuple(fixed.values())
        candidates = (tuple(map((c + tail).__getitem__, pick)) for c in candidates)
    return candidates


def product(gs: Sequence[FiniteAlgebra], name: Optional[str] = None, cap: Optional[int] = None) -> FiniteAlgebra:
    """The product of the factors, its elements numbered as tuple_to_index
    numbers their rows: the generation seeded by every row of each sort, in
    lexicographic order, which adds no member.

    The product's table cells are checked against cap first
    (CapExceeded("product tables")), then its elements, the seeds
    (CapExceeded("product members")): a sort that is no op's argument has
    elements but no table cells.
    """
    if not gs:
        raise ValueError("product of an empty family is the unit algebra; build it explicitly")
    sig = _common_sig(gs)
    sizes = [math.prod(g.sizes[s] for g in gs) for s in range(len(sig.sorts))]
    check_cap("product tables", sum(math.prod(sizes[s] for s in op.args) for op in sig.ops), cap)
    check_cap("product members", sum(sizes), cap)
    seeds = [(s, row) for s in range(len(sig.sorts)) for row in itertools.product(*[range(g.sizes[s]) for g in gs])]
    names = [f"e{i}" for i in range(len(seeds))]
    return generate(gs, seeds, names, name=name or "x".join(g.name for g in gs)).as_algebra()


def _common_sig(gs: Sequence[FiniteAlgebra]) -> Signature:
    sig = gs[0].sig
    for g in gs[1:]:
        if g.sig is not sig and (g.sig.sorts, g.sig.ops) != (sig.sorts, sig.ops):
            raise ValueError("product factors must share a signature")
    return sig


def tuple_to_index(tup: Sequence[int], sizes: Sequence[int]) -> int:
    i = 0
    for v, n in zip(tup, sizes):
        i = i * n + v
    return i


def index_to_tuple(i: int, sizes: Sequence[int]) -> tuple[int, ...]:
    out = []
    for n in reversed(sizes):
        out.append(i % n)
        i //= n
    return tuple(reversed(out))


def quotient(g: FiniteAlgebra, partition, name: Optional[str] = None) -> FiniteAlgebra:
    """Quotient by a partition of the carriers; rejects non-congruences.

    The partition is given as one sequence of block labels per sort (or any
    object exposing them as .block_ids). Labels are normalized by first
    occurrence; compatibility is verified while class_tables builds the
    class rows, which become the quotient's tables with no second check.
    """
    block_of = dense_blocks(g, getattr(partition, "block_ids", partition))
    counts = [max(blocks) + 1 for blocks in block_of]
    return _total(g.sig, counts, class_tables(g, block_of), name or f"{g.name}/~")


def dense_blocks(g: FiniteAlgebra, labels) -> tuple[tuple[int, ...], ...]:
    """Each sort's block labels renumbered 0, 1, ... by first occurrence.

    labels holds one label sequence per sort of g; a sequence whose length
    is not its carrier's size raises ValueError.
    """
    out = []
    for s, n in enumerate(g.sizes):
        row = list(labels[s])
        if len(row) != n:
            raise ValueError(f"partition for sort {s} has wrong length")
        relabel: dict = {}
        out.append(tuple(relabel.setdefault(lab, len(relabel)) for lab in row))
    return tuple(out)


def class_tables(g: FiniteAlgebra, block_of: Sequence[Sequence[int]]) -> dict[str, object]:
    """Op tables on blocks, as nested rows laid out as nested() lays them
    out, given each element's block per sort, numbered as dense_blocks
    numbers them.

    One pass over g's table rows (every argument but the last fixed), in
    lexicographic order. The first row to reach a class row is the one
    whose fixed arguments are their blocks' first elements, and it fills
    the class row from its entries at the last sort's first elements: each
    class takes its value from its lexicographically first cell. Every row
    is then checked against its class row. Raises ValueError unless the
    partition is a congruence of g; the error names the first class, in
    lexicographic order of g's rows, that an op splits.
    """
    firsts = []
    for blocks in block_of:
        first = {b: e for e, b in reversed(list(enumerate(blocks)))}
        firsts.append([first[b] for b in range(len(first))])
    tables: dict[str, object] = {}
    for op in g.sig.ops:
        table, result = g.nested()[op.name], block_of[op.result]
        if not op.args:
            tables[op.name] = result[table]
            continue
        *heads, last = op.args
        keys, lasts, rows = [block_of[s] for s in heads], block_of[last], {}
        for prefix in itertools.product(*[range(g.sizes[s]) for s in heads]):
            key = tuple(map(getitem, keys, prefix))
            got = list(map(result.__getitem__, functools.reduce(getitem, prefix, table)))
            row = rows.get(key)
            if row is None:
                row = rows[key] = list(map(got.__getitem__, firsts[last]))
            want = list(map(row.__getitem__, lasts))
            if want != got:
                j = list(map(ne, want, got)).index(True)
                raise ValueError(f"partition is not a congruence: op {op.name!r} splits class {(*key, lasts[j])}")
        dims = [len(firsts[s]) for s in heads]
        tables[op.name] = _nested_rows([rows[key] for key in itertools.product(*map(range, dims))], dims)
    return tables


def inferred_context(sig: Signature, terms: Sequence[Term]) -> VarContext:
    """Minimal context of a term family, sorts inferred from op positions.

    A variable never appearing under an op is ambiguous unless the signature
    is single-sorted. A variable takes the sort of the first op position it
    is met at, so which of two faults is raised depends on the order of the
    whole walk: each term is walked from its root, in the order of a
    left-to-right recursion, with an explicit stack.
    """
    sorts: dict[str, int] = {}
    order: dict[str, None] = {}  # variables in first-occurrence order
    seen: set[int] = set()
    for t in terms:
        stack: list[tuple[Term, int]] = [(t, -1)]  # each with the sort its position takes; -1 at a root
        while stack:
            u, s = stack.pop()
            if isinstance(u, Var):
                order[u.name] = None
                if s >= 0 and sorts.setdefault(u.name, s) != s:
                    raise ValueError(f"variable {u.name!r} used at two sorts")
            elif id(u) not in seen:
                seen.add(id(u))
                op = sig.op(u.op)
                if len(u.args) != op.arity:
                    raise ValueError(f"op {u.op!r}: arity mismatch")
                stack.extend(reversed(list(zip(u.args, op.args))))
    if not order:
        order = {"x": None}
        sorts.setdefault("x", 0)
    pairs = []
    for name in order:
        if name not in sorts:
            if len(sig.sorts) == 1:
                sorts[name] = 0
            else:
                raise ValueError(f"cannot infer sort of bare variable {name!r}; pass a context")
        pairs.append((name, sig.sorts[sorts[name]]))
    return VarContext(sig, pairs)


def satisfies_identity(
    g: FiniteAlgebra,
    pair: tuple[Term, Term],
    ctx: Optional[VarContext] = None,
    cap: Optional[int] = None,
) -> bool:
    """True iff both terms evaluate equal at every point of the pair's context."""
    if ctx is None:
        ctx = inferred_context(g.sig, pair)
    [(lhs, rhs)] = eval_pairs([pair], enumerate_points(ctx, g, cap), g, ctx)
    return lhs == rhs


def ops_commute(g: FiniteAlgebra, name1: str, name2: str) -> bool:
    """The commutation law for an op pair, checked over all value matrices.

    With both ops at least unary, the law equates applying op1 along the rows
    then op2 to the row results with applying op2 down the columns then op1 to
    the column results. A nullary op commutes with an n-ary op when the n-ary
    op is constant on the nullary value; two nullary ops commute when their
    values are equal. Pairs whose law is not well-sorted (cross-sort nullaries,
    inconsistent matrix sorts) commute vacuously.
    """
    op1, op2 = g.sig.op(name1), g.sig.op(name2)
    n, m = op1.arity, op2.arity
    # matrix of m rows by n columns; entry (i,j) must inhabit both arg sorts.
    # With a nullary op the matrix is empty, and the law compares the other
    # op, applied to the constant throughout, with the constant.
    if op1.result != op2.result:
        return True
    if any(s != op1.result for s in op2.args) or any(s != op2.result for s in op1.args):
        # op2 must accept op1 results and vice versa for the law to be a term
        return True
    if any(op1.args[j] != op2.args[i] for i in range(m) for j in range(n)):
        return True
    cell_sorts = [g.sizes[op1.args[j]] for j in range(n)]
    for rows in itertools.product(*(itertools.product(*[range(k) for k in cell_sorts]) for _ in range(m))):
        lhs = g.apply(name2, [g.apply(name1, row) for row in rows])
        cols = [[rows[i][j] for i in range(m)] for j in range(n)]
        rhs = g.apply(name1, [g.apply(name2, col) for col in cols])
        if lhs != rhs:
            return False
    return True


def is_commutative(g: FiniteAlgebra) -> bool:
    names = [op.name for op in g.sig.ops]
    for i, a in enumerate(names):
        for b in names[i:]:
            if not ops_commute(g, a, b):
                return False
    return True


def extend_with_constants(g: FiniteAlgebra, sig_c: Signature) -> FiniteAlgebra:
    """Interpret a constant-adjoined signature over g's carriers."""
    nested = dict(g.nested())
    for s in range(len(sig_c.sorts)):
        for e in range(g.sizes[s]):
            cname = constant_name(sig_c, s, e)
            if sig_c.has_op(cname):
                nested[cname] = e
    return _total(sig_c, g.sizes, nested, f"{g.name}+c")


# Stock signatures and algebras. Declaration order is part of the contract:
# generated-subalgebra traversal and hom enumeration follow it.

GROUP_SIG = Signature(
    ("g",),
    (("mul", ("g", "g"), "g"), ("inv", ("g",), "g"), ("e", (), "g")),
)

SEMILATTICE_SIG = Signature(("s",), (("meet", ("s", "s"), "s"),))

RING_SIG = Signature(
    ("r",),
    (
        ("add", ("r", "r"), "r"),
        ("mul", ("r", "r"), "r"),
        ("zero", (), "r"),
        ("one", (), "r"),
        ("two", (), "r"),
    ),
)


def cyclic_group(n: int) -> FiniteAlgebra:
    if n < 1:
        raise ValueError("order must be positive")
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _total(GROUP_SIG, (n,), {"mul": mul, "inv": [-i % n for i in range(n)], "e": 0}, f"Z{n}")


def klein_four() -> FiniteAlgebra:
    # xor on two bits
    mul = [[i ^ j for j in range(4)] for i in range(4)]
    return _total(GROUP_SIG, (4,), {"mul": mul, "inv": list(range(4)), "e": 0}, "V4")


def symmetric_group_3() -> FiniteAlgebra:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    # mul(a, b) applies b first: (a*b)(x) = a(b(x))
    mul = [[index[tuple(a[x] for x in b)] for b in perms] for a in perms]
    inv = [index[tuple(sorted(range(3), key=a.__getitem__))] for a in perms]
    return _total(GROUP_SIG, (6,), {"mul": mul, "inv": inv, "e": index[(0, 1, 2)]}, "S3")


def chain_semilattice(n: int) -> FiniteAlgebra:
    if n < 1:
        raise ValueError("carriers must be nonempty")
    return _total(SEMILATTICE_SIG, (n,), {"meet": [[min(i, j) for j in range(n)] for i in range(n)]}, f"C{n}")


def vee_semilattice() -> FiniteAlgebra:
    """Three elements: 0 below the incomparable 1 and 2."""
    meet = [[i if i == j else 0 for j in range(3)] for i in range(3)]
    return _total(SEMILATTICE_SIG, (3,), {"meet": meet}, "Vee")


def mod_ring(n: int) -> FiniteAlgebra:
    if n < 1:
        raise ValueError("order must be positive")
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[i * j % n for j in range(n)] for i in range(n)]
    return _total(RING_SIG, (n,), {"add": add, "mul": mul, "zero": 0, "one": 1 % n, "two": 2 % n}, f"R{n}")
