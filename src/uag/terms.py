"""Many-sorted signatures, terms over a finite variable context, substitutions.

Terms are interned: structurally equal trees are the same object, so equality
is identity; hash, node count and depth are set at construction. The intern
tables are process-global; terms are signature-agnostic trees and
well-sortedness is a separate check.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional

_set = object.__setattr__  # how Value.__init__, and Op's and Clause's own, set fields


class Value:
    """Base of the package's immutable value classes.

    A subclass lists its fields in _fields, in declaration order, and keeps
    them in __slots__; assignment raises AttributeError. One constructor
    takes the slot fields in order, by position or by keyword, and fills
    those left out from _defaults; only Op and Clause, which derive or
    check fields, write their own __init__. Two values are equal iff they
    are of one class with equal field tuples; a value hashes as its field
    tuple, and its repr is Name(field=value, ...). A field kept as a class
    constant, not a slot (a verdict class's verdict), is compared, hashed
    and listed by reports.to_jsonable like the others, but is not an
    __init__ argument and is left out of the repr.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _values: Callable[["Value"], tuple]  # the field tuple: an attrgetter, whose one field is put in a tuple
    _shown: tuple[str, ...]  # the __init__ arguments and the fields the repr shows: those kept in slots
    _defaults: dict = {}  # an argument's value when a call leaves it out

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            get = attrgetter(*cls._fields)
            cls._values = get if len(cls._fields) > 1 else staticmethod(lambda v: (get(v),))
            cls._shown = tuple(f for f in cls._fields if f in cls.__slots__)
        extra = sorted(cls._defaults.keys() - set(getattr(cls, "_shown", ())))
        if extra:
            raise TypeError(f"{cls.__name__}: defaults for what are not fields: {extra}")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._shown):
            args = self._bind(args, kwargs)
        for name, value in zip(self._shown, args):
            _set(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """A call's arguments in field order, or the TypeError a function would raise."""
        names = cls._shown
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        for name in kwargs:
            if name not in names[len(args):]:
                why = "multiple values for" if name in names else "an unexpected keyword"
                raise TypeError(f"{cls.__name__}() got {why} argument {name!r}")
        bound = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                bound.append(kwargs[name])
            elif name in cls._defaults:
                bound.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        return bound

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__name__}({inner})"

    def __setattr__(self, name: str, _value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Op(Value):
    _fields = ("name", "args", "result")
    __slots__ = (*_fields, "arity")

    def __init__(self, name: str, args: tuple[int, ...], result: int):
        _set(self, "name", name)
        _set(self, "args", args)  # argument sorts, as indices
        _set(self, "result", result)  # result sort index
        _set(self, "arity", len(args))


class Signature:
    """Operation alphabet. Sorts live at integer indices in declaration order."""

    __slots__ = ("sorts", "ops", "by_name", "arities")

    def __init__(self, sorts: Iterable[str], ops: Iterable[tuple]):
        self.sorts: tuple[str, ...] = tuple(sorts)
        if len(set(self.sorts)) != len(self.sorts):
            raise ValueError("duplicate sort names")
        if not self.sorts:
            raise ValueError("at least one sort required")
        index = {s: i for i, s in enumerate(self.sorts)}
        decls = []
        for name, arg_sorts, result_sort in ops:
            for s in (*arg_sorts, result_sort):
                if s not in index:
                    raise ValueError(f"op {name}: undeclared sort {s!r}")
            decls.append(Op(name, tuple(index[s] for s in arg_sorts), index[result_sort]))
        self.ops: tuple[Op, ...] = tuple(decls)
        self.by_name: dict[str, Op] = {op.name: op for op in self.ops}
        if len(self.by_name) != len(self.ops):
            raise ValueError("duplicate op names")
        self.arities: dict[str, int] = {op.name: len(op.args) for op in self.ops}  # by op name

    def op(self, name: str) -> Op:
        try:
            return self.by_name[name]
        except KeyError:
            raise ValueError(f"unknown op {name!r}") from None

    def has_op(self, name: str) -> bool:
        return name in self.by_name

    def sort_index(self, name: str) -> int:
        try:
            return self.sorts.index(name)
        except ValueError:
            raise ValueError(f"unknown sort {name!r}") from None

    def __repr__(self) -> str:
        return f"Signature(sorts={self.sorts!r}, ops={[op.name for op in self.ops]!r})"


class VarContext:
    """Declared finite working variable set: ordered (name, sort index) pairs."""

    __slots__ = ("vars", "_pos")

    def __init__(self, sig: Signature, vars: Iterable[tuple[str, str]]):
        self.vars: tuple[tuple[str, int], ...] = tuple(
            (name, sig.sort_index(sort)) for name, sort in vars
        )
        if not self.vars:
            raise ValueError("empty variable context")
        self._pos = {name: i for i, (name, _) in enumerate(self.vars)}
        if len(self._pos) != len(self.vars):
            raise ValueError("duplicate variable names")

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def sort_of(self, name: str) -> int:
        return self.vars[self.position(name)][1]

    def has(self, name: str) -> bool:
        return name in self._pos

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.vars)

    def __len__(self) -> int:
        return len(self.vars)

    def __repr__(self) -> str:
        return f"VarContext({list(self.names)!r})"


class Term:
    __slots__ = ()
    size: int  # node count
    depth: int  # see term_depth
    _key: Optional[tuple[int, str]]  # term_key, once asked for
    _post: Optional[tuple["Term", ...]]  # postorder, once asked for


class Var(Term):
    __slots__ = ("name", "size", "depth", "_key", "_post")

    def __init__(self, name: str):
        self.name = name
        self.size = 1
        self.depth = 0
        self._key = None
        self._post = None

    def __repr__(self) -> str:
        return render(self)


class App(Term):
    __slots__ = ("op", "args", "size", "depth", "_key", "_post")

    def __init__(self, op: str, args: tuple[Term, ...]):
        self.op = op
        self.args = args
        self.size = 1 + sum(a.size for a in args)
        self.depth = 1 + max((a.depth for a in args), default=0)
        self._key = None
        self._post = None

    def __repr__(self) -> str:
        return render(self)


_VARS: dict[str, Var] = {}
_APPS: dict[tuple, App] = {}


# a name given as a str subclass (a reader's positioned sexpr.Atom) finds the
# node its text names; a new node keeps the plain str of its text
def var(name: str) -> Var:
    t = _VARS.get(name)
    if t is None:
        name = str(name)
        t = _VARS[name] = Var(name)
    return t


def app(op: str, *args: Term) -> App:
    key = (op, tuple(map(id, args)))
    t = _APPS.get(key)
    if t is None:
        op = str(op)
        t = _APPS[op, key[1]] = App(op, tuple(args))
    return t


def postorder(t: Term) -> tuple[Term, ...]:
    """The distinct subterms of t, each after its arguments, in the order a
    left-to-right recursive walk finishes them; t itself comes last.

    Every term walk but congruence registration is a loop over this. It is
    built with an explicit stack, so any depth is walked, and a subterm
    shared by several parents is listed once, so a term doubled k times has
    k + 1 entries. Computed on first request and kept on the interned node,
    like term_key: only the node asked about keeps its tuple.
    """
    post = t._post
    if post is None:
        if isinstance(t, Var) or not t.args:
            post = (t,)
        else:
            out: list[Term] = []
            seen = {id(t)}
            stack = [(t, iter(t.args))]  # open nodes, each with its arguments still to walk
            while stack:
                u, rest = stack[-1]
                for a in rest:
                    if id(a) not in seen:
                        seen.add(id(a))
                        if isinstance(a, App) and a.args:
                            stack.append((a, iter(a.args)))
                            break
                        out.append(a)
                else:
                    stack.pop()
                    out.append(u)
            post = tuple(out)
        t._post = post
    return post


def render(t: Term) -> str:
    """Fully parenthesized prefix form; bare symbols for variables and nullary ops.

    Written token by token from an explicit stack of the terms still to
    write and the text between them, and joined once, so rendering takes
    time linear in the output at any depth.
    """
    parts: list[str] = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Var):
            parts.append(item.name)
        elif not item.args:
            parts.append(item.op)
        else:
            parts.append("(")
            parts.append(item.op)
            stack.append(")")
            for a in reversed(item.args):
                stack.append(a)
                stack.append(" ")
    return "".join(parts)


def check_same_sort(w: Term, w2: Term, s: int, s2: int, sig: Signature, what: str = "equation") -> None:
    """Raise ValueError, naming the equation w = w2, when its sides' sorts
    s and s2 differ."""
    if s != s2:
        raise ValueError(
            f"{what} {render(w)} = {render(w2)}: sides of sorts {sig.sorts[s]!r} and {sig.sorts[s2]!r}"
        )


def term_key(t: Term) -> tuple[int, str]:
    """Canonical sortable key: (node count, rendered form).

    Computed on first request and kept on the interned node, so later calls
    are O(1). Only the node asked about keeps its string; its subterms' are
    not cached, so keying the root of a deep chain stores one string.
    """
    key = t._key
    if key is None:
        key = t._key = (t.size, render(t))
    return key


def term_size(t: Term) -> int:
    """Node count, kept on the interned node."""
    return t.size


def term_depth(t: Term) -> int:
    """Depth 0 for variables; an application is one deeper than its deepest
    child, so a constant has depth 1. Kept on the interned node."""
    return t.depth


def term_vars(t: Term) -> list[str]:
    """Variable names in first-occurrence order: the order of t's postorder."""
    return [u.name for u in postorder(t) if isinstance(u, Var)]


def sort_of(t: Term, sig: Signature, ctx: VarContext) -> int:
    """Sort index of a well-sorted term; raises ValueError with a diagnostic.

    Each distinct subterm's sort is found once, in postorder. An ill-formed
    subterm gets its error message in place of a sort. No argument sort
    equals a message, so a parent passes on the message of its first
    argument that is ill-formed or of the wrong sort, and t raises the error
    a left-to-right recursion from the root meets first.
    """
    sorts: dict[int, int | str] = {}
    for u in postorder(t):
        if isinstance(u, Var):
            s = ctx.sort_of(u.name) if ctx.has(u.name) else f"unknown variable {u.name!r}"
        elif (op := sig.by_name.get(u.op)) is None:
            s = f"unknown op {u.op!r}"
        elif len(u.args) != len(op.args):
            s = f"op {u.op!r}: expected {len(op.args)} arguments, got {len(u.args)}"
        else:
            s = op.result
            for child, want in zip(u.args, op.args):
                got = sorts[id(child)]
                if got != want:
                    s = got if isinstance(got, str) else (
                        f"op {u.op!r}: argument {render(child)} has sort "
                        f"{sig.sorts[got]!r}, expected {sig.sorts[want]!r}"
                    )
                    break
        sorts[id(u)] = s
    s = sorts[id(t)]
    if isinstance(s, str):
        raise ValueError(s)
    return s


def well_sorted(t: Term, sig: Signature, ctx: VarContext) -> bool:
    try:
        sort_of(t, sig, ctx)
        return True
    except ValueError:
        return False


class Substitution:
    """Sort-preserving map from variable names to terms; identity where unbound."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: Mapping[str, Term]):
        self.bindings: dict[str, Term] = dict(bindings)

    def __call__(self, name: str) -> Term:
        return self.bindings.get(name) or var(name)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}->{render(t)}" for n, t in sorted(self.bindings.items()))
        return f"Substitution({inner})"


IDENTITY = Substitution({})


def apply_subst(s: Substitution, t: Term) -> Term:
    image: dict[int, Term] = {}
    for u in postorder(t):
        image[id(u)] = s(u.name) if isinstance(u, Var) else app(u.op, *[image[id(a)] for a in u.args])
    return image[id(t)]


def compose(s1: Substitution, s2: Substitution) -> Substitution:
    """compose(s1,s2) applied to t equals s1 applied to (s2 applied to t)."""
    out = {name: apply_subst(s1, t) for name, t in s2.bindings.items()}
    for name, t in s1.bindings.items():
        if name not in out:
            out[name] = t
    return Substitution(out)


def subterm_universe(terms: Iterable[Term]) -> list[Term]:
    """All subterms, deduplicated, in postorder: each term's postorder in
    turn, less the subterms an earlier term already listed."""
    return list(dict.fromkeys(u for t in terms for u in postorder(t)))


def constant_name(sig: Signature, sort: int, element: int) -> str:
    if len(sig.sorts) == 1:
        return f"c{element}"
    return f"c_{sig.sorts[sort]}_{element}"


def adjoin_constants(sig: Signature, g) -> tuple[Signature, list[tuple[Term, Term]]]:
    """Extend sig with one nullary op per element of g; return the extended
    signature and the ground pairs reading off g's operation tables.

    The pair count is sum over ops of |G|^arity, one pair per table entry.
    """
    decls = [(op.name, tuple(sig.sorts[a] for a in op.args), sig.sorts[op.result]) for op in sig.ops]
    const_term: dict[tuple[int, int], Term] = {}
    for sort in range(len(sig.sorts)):
        for element in range(g.sizes[sort]):
            name = constant_name(sig, sort, element)
            if sig.has_op(name):
                raise ValueError(f"constant name {name!r} collides with an existing op")
            decls.append((name, (), sig.sorts[sort]))
            const_term[(sort, element)] = app(name)
    sig_c = Signature(sig.sorts, decls)
    pairs: list[tuple[Term, Term]] = []
    for op in sig.ops:
        for args, result in g.rows(op):
            lhs = app(op.name, *(const_term[(s, a)] for s, a in zip(op.args, args)))
            pairs.append((lhs, const_term[(op.result, result)]))
    return sig_c, pairs
