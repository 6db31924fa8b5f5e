"""S-expression file format for signatures, algebras, equations and formulas.

A workspace file is a sequence of top-level forms; later forms may refer to
names introduced by earlier ones. Comments run from a semicolon to the end
of the line. An algebra gives each carrier, each table and each table row
once, in any order.

    (sort g)
    (op mul (g g) g)
    (op e () g)
    (algebra Z2 (carrier g 2) (table mul (0 0 0) (0 1 1) (1 0 1) (1 1 0)) (table e (0)))
    (context C (x g) (y g))          ; or (context C x y) when single-sorted
    (pairs T ((mul x x) e) (x y))
    (rel-sig (P g))
    (model M Z2 (rel P (1)))
    (formula q (exists (y) (not (eq x y))))
    (clause c1 identity ((mul x y) (mul y x)))
    (clause c2 pseudo (x e) (y e))
    (clause c3 universal (pos (x y)) (neg (x e)))
    (clause c4 quasi (ante ((mul x x) e)) (cons x (inv x)))

In terms, a bare atom is the application of a nullary operation if one of
that name exists, otherwise a variable.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .algebras import FiniteAlgebra
from .congruences import Pair, PairSet
from .logic import (
    And,
    Eq,
    Exists,
    Formula,
    Model,
    Not,
    Or,
    Rel,
    RelSignature,
    exists_f,
    forall_f,
)
from .rules import Clause, identity, pseudo, quasi, universal
from .terms import Signature, Substitution, Term, VarContext, app, render, var


class SexprError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        self.line, self.col = line, col
        super().__init__(f"{line}:{col}: {msg}" if line else msg)


class Atom(str):
    """A symbol: a ``str`` of its text that also keeps the line and column
    (both 1-based) where it starts. It equals and hashes as its text."""

    __slots__ = ("line", "col")

    def __new__(cls, text: str, *_position):
        return str.__new__(cls, text)

    def __init__(self, _text: str, line: int, col: int):
        self.line, self.col = line, col


class EmptyForm(list):
    """``()``, which has no first item to be located by, so it keeps the
    line and column of its ``(``."""

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int):
        super().__init__()
        self.line, self.col = line, col


Node = Union[str, list]

# one token per match, told apart by the group that matched: 1 an open
# paren, 2 a close paren, 3 a run of symbol characters, none a comment start;
# spaces, tabs and carriage returns between tokens are skipped
_TOKEN = re.compile(r"(\()|(\))|;|([^ \t\r\n();]+)")


def parse_nodes(src: str) -> list[Node]:
    """The top-level forms of ``src``: a list is a parenthesized form (an
    EmptyForm when empty), an Atom a symbol, each at its line and column
    (both 1-based; every character but the newline takes one column).

    One compiled regex runs over each line and the tree is built as it
    matches; a ``;`` ends the line. Open lists are kept on an explicit
    stack, so nesting depth is bounded by memory, not by Python's recursion
    limit. A stray ``)`` is reported where it stands, an unclosed ``(`` at
    the innermost one left open.
    """
    out: list[Node] = []
    items = out
    stack: list[tuple[list, int, int]] = []  # (enclosing list, line, col of its open paren)
    for line, text in enumerate(src.split("\n"), 1):
        for m in _TOKEN.finditer(text):
            kind = m.lastindex
            if kind == 3:
                items.append(Atom(m.group(3), line, m.start() + 1))
            elif kind == 1:
                stack.append((items, line, m.start() + 1))
                items = []
            elif kind == 2:
                if not stack:
                    raise SexprError("unexpected ')'", line, m.start() + 1)
                enclosing, open_line, open_col = stack.pop()
                enclosing.append(items or EmptyForm(open_line, open_col))
                items = enclosing
            else:
                break
    if stack:
        raise SexprError("unclosed parenthesis", *stack[-1][1:])
    return out


_COMMENT = re.compile(r";[^\n]*")


def _tokens(src: str):
    """The tokens of ``src`` with its comments taken out: each paren, and
    each run of other characters but space, tab, CR and LF. The text is
    split at spaces once each paren is padded with spaces and each tab, CR
    and LF is a space."""
    text = _COMMENT.sub("", src).replace("(", " ( ").replace(")", " ) ")
    return filter(None, text.replace("\t", " ").replace("\r", " ").replace("\n", " ").split(" "))


def _read(src: str) -> list[Node]:
    """The top-level forms of ``src`` as parse_nodes reads them, but as
    nested lists of plain ``str`` with no positions, read off ``_tokens``.
    Open lists are kept on an explicit stack, as in parse_nodes. Unbalanced
    parentheses raise a SexprError with no position; parse_nodes places
    it."""
    out: list[Node] = []
    items = out
    stack: list[list] = []
    for tok in _tokens(src):
        if tok == "(":
            stack.append(items)
            items = []
        elif tok == ")":
            if not stack:
                raise SexprError("unexpected ')'")
            enclosing = stack.pop()
            enclosing.append(items)
            items = enclosing
        else:
            items.append(tok)
    if stack:
        raise SexprError("unclosed parenthesis")
    return out


def _placed(parse, src: str, sig: Signature):
    """``parse(tree, sig)`` on the positionless tree of ``src``. If that
    raises a SexprError, the same parse runs on parse_nodes' tree, which
    raises it again with the line and column of the fault."""
    try:
        return parse(_read(src), sig)
    except SexprError:
        parse(parse_nodes(src), sig)
        raise


def _head(node: Node) -> str:
    if not isinstance(node, list) or not node or not isinstance(node[0], str):
        raise SexprError("expected a form starting with a symbol", *_pos(node))
    return node[0]


def _pos(node: Node) -> tuple[int, int]:
    """Where node's first symbol starts; an empty form's own ``(``. A node
    of the positionless tree (a plain ``str``, or ``[]``) is at (0, 0)."""
    while isinstance(node, list) and node:
        node = node[0]
    return (getattr(node, "line", 0), getattr(node, "col", 0))


def _atom(node: Node, what: str) -> str:
    if not isinstance(node, str):
        raise SexprError(f"expected {what}", *_pos(node))
    return node


def _item(form: list, i: int, what: str) -> Node:
    """Item ``i`` of ``form``; a form too short for it is an error naming
    what belongs there."""
    if i >= len(form):
        raise SexprError(f"expected {what}", *_pos(form))
    return form[i]


def _end(form: list, n: int) -> None:
    """A form of exactly n items: an item past them is an error at its position."""
    if len(form) > n:
        raise SexprError("unexpected item", *_pos(form[n]))


def _atom_at(form: list, i: int, what: str) -> str:
    return _atom(_item(form, i, what), what)


def _int(node: Node, what: str) -> int:
    text = _atom(node, what)
    try:
        return int(text)
    except ValueError:
        raise SexprError(f"expected an integer {what}, got {text!r}", *_pos(node))


class Workspace:
    """Named definitions accumulated from workspace files."""

    def __init__(self):
        self.sorts: list[str] = []
        self.op_decls: list[tuple[str, tuple[str, ...], str]] = []
        self._sig: Optional[Signature] = None
        self.algebras: dict[str, FiniteAlgebra] = {}
        self.contexts: dict[str, VarContext] = {}
        self.pairsets: dict[str, PairSet] = {}
        self.formulas: dict[str, Formula] = {}
        self.models: dict[str, Model] = {}
        self.clauses: dict[str, Clause] = {}
        self.rel_decls: list[tuple[str, tuple[str, ...]]] = []
        self._rel_sig: Optional[RelSignature] = None

    def copy(self) -> Workspace:
        """A workspace with the same definitions, each list and dict of them
        copied, so that what is added to one is not added to the other."""
        ws = Workspace.__new__(Workspace)
        ws.__dict__ = {k: v.copy() if isinstance(v, (list, dict)) else v for k, v in self.__dict__.items()}
        return ws

    def sig(self) -> Signature:
        if self._sig is None:
            if not self.sorts:
                raise SexprError("no (sort ...) declared before it was needed")
            self._sig = Signature(self.sorts, self.op_decls)
        return self._sig

    def rel_sig(self) -> RelSignature:
        if self._rel_sig is None:
            self._rel_sig = RelSignature(self.sig(), self.rel_decls)
        return self._rel_sig

    def algebra(self, name: str) -> FiniteAlgebra:
        return self._get(self.algebras, name, "algebra")

    def context(self, name: str) -> VarContext:
        return self._get(self.contexts, name, "context")

    def pairs(self, name: str) -> PairSet:
        return self._get(self.pairsets, name, "pairs")

    def formula(self, name: str) -> Formula:
        return self._get(self.formulas, name, "formula")

    def model(self, name: str) -> Model:
        return self._get(self.models, name, "model")

    def clause(self, name: str) -> Clause:
        return self._get(self.clauses, name, "clause")

    @staticmethod
    def _get(table: dict, name: str, what: str):
        if name not in table:
            known = ", ".join(sorted(table)) or "none defined"
            raise SexprError(f"unknown {what} {name!r} (known: {known})")
        return table[name]


def parse_term(node: Node, sig: Signature) -> Term:
    """The term a node spells, read with an explicit stack, so nesting is
    bounded by memory, not by the recursion limit. Nodes are checked in the
    order of a left-to-right recursion."""
    if isinstance(node, str):
        return _symbol_term(node, sig)
    _check_term_op(node, sig)
    stack: list[tuple[list, list[Term]]] = [(node, [])]  # open nodes, each with the arguments read so far
    while True:
        top, args = stack[-1]
        if len(args) == len(top) - 1:
            stack.pop()
            t = app(top[0], *args)
            if not stack:
                return t
            stack[-1][1].append(t)
            continue
        child = top[len(args) + 1]
        if isinstance(child, str):
            args.append(_symbol_term(child, sig))
        else:
            _check_term_op(child, sig)
            stack.append((child, []))


def _symbol_term(text: str, sig: Signature) -> Term:
    if text.lstrip("-").isdigit():
        raise SexprError("a bare number is not a term", *_pos(text))
    arity = sig.arities.get(text)
    if arity is None:
        return var(text)
    if arity:
        raise SexprError(f"operation {text!r} takes {arity} arguments", *_pos(text))
    return app(text)


def _check_term_op(node: list, sig: Signature) -> None:
    """Check the operation a compound term node applies against sig."""
    if not node:
        raise SexprError("empty term", *_pos(node))
    head = node[0]
    name = _atom(head, "an operation name")
    arity = sig.arities.get(name)
    if arity is None:
        raise SexprError(f"unknown operation {name!r}", *_pos(head))
    if len(node) - 1 != arity:
        raise SexprError(
            f"operation {name!r} takes {arity} arguments, got {len(node) - 1}", *_pos(head)
        )


def parse_pair(node: Node, sig: Signature) -> Pair:
    if not isinstance(node, list) or len(node) != 2:
        raise SexprError("expected a pair (term term)", *_pos(node))
    return (parse_term(node[0], sig), parse_term(node[1], sig))


def parse_formula(node: Node, ws: Workspace) -> Formula:
    sig = ws.sig()
    if isinstance(node, str):
        if node == "true":
            return And(())
        if node == "false":
            return Or(())
        raise SexprError(f"bare formula atom {node!r}", *_pos(node))
    head = _head(node)
    body = node[1:]
    if head == "eq":
        if len(body) != 2:
            raise SexprError("(eq term term)", *_pos(node))
        return Eq(parse_term(body[0], sig), parse_term(body[1], sig))
    if head == "rel":
        if not body:
            raise SexprError("(rel name term...)", *_pos(node))
        name = _atom(body[0], "a relation name")
        ws.rel_sig().arity(name)
        return Rel(name, tuple(parse_term(t, sig) for t in body[1:]))
    if head == "and":
        return And(tuple(parse_formula(f, ws) for f in body))
    if head == "or":
        return Or(tuple(parse_formula(f, ws) for f in body))
    if head == "not":
        if len(body) != 1:
            raise SexprError("(not formula)", *_pos(node))
        return Not(parse_formula(body[0], ws))
    if head in ("exists", "forall"):
        if len(body) != 2 or not isinstance(body[0], list):
            raise SexprError(f"({head} (vars) formula)", *_pos(node))
        names = [_atom(v, "a variable") for v in body[0]]
        inner = parse_formula(body[1], ws)
        return exists_f(names, inner) if head == "exists" else forall_f(names, inner)
    raise SexprError(f"unknown formula head {head!r}", *_pos(node))


def _parse_algebra(node: list, ws: Workspace) -> None:
    name = _atom_at(node, 1, "an algebra name")
    sig = ws.sig()
    sizes = [0] * len(sig.sorts)
    seen_sizes = [False] * len(sig.sorts)
    tables: dict[str, dict[tuple[int, ...], int]] = {}
    for form in node[2:]:
        head = _head(form)
        if head == "carrier":
            if len(form) != 3:
                raise SexprError("(carrier sort size)", *_pos(form))
            s = sig.sort_index(_atom(form[1], "a sort name"))
            if seen_sizes[s]:
                raise SexprError(f"repeated (carrier {sig.sorts[s]} ...)", *_pos(form))
            sizes[s] = _int(form[2], "carrier size")
            seen_sizes[s] = True
        elif head == "table":
            opname = _atom_at(form, 1, "an operation name")
            if not sig.has_op(opname):
                raise SexprError(f"unknown operation {opname!r}", *_pos(form))
            if opname in tables:
                raise SexprError(f"repeated (table {opname} ...)", *_pos(form))
            op = sig.op(opname)
            rows: dict[tuple[int, ...], int] = {}
            for row in form[2:]:
                if not isinstance(row, list) or len(row) != op.arity + 1:
                    raise SexprError(
                        f"table row for {opname!r} needs {op.arity + 1} integers",
                        *_pos(row),
                    )
                *args, val = [_int(x, "a table entry") for x in row]
                if tuple(args) in rows:
                    raise SexprError(f"repeated table row for {opname!r} at {tuple(args)}", *_pos(row))
                rows[tuple(args)] = val
            tables[opname] = rows
        else:
            raise SexprError(f"unknown algebra form {head!r}", *_pos(form))
    for s, ok in enumerate(seen_sizes):
        if not ok:
            raise SexprError(f"algebra {name!r} missing (carrier {sig.sorts[s]} ...)", *_pos(node))
    try:
        ws.algebras[name] = FiniteAlgebra(sig, sizes, tables, name=name)
    except ValueError as e:  # a table or carrier fault, found by the check
        raise SexprError(f"algebra {name!r}: {e}", *_pos(node)) from e


def _parse_context(node: list, ws: Workspace) -> None:
    name = _atom_at(node, 1, "a context name")
    sig = ws.sig()
    decls = []
    for v in node[2:]:
        if isinstance(v, str):
            if len(sig.sorts) != 1:
                raise SexprError("bare context variables need a single-sorted signature", *_pos(v))
            decls.append((v, sig.sorts[0]))
        else:
            if len(v) != 2:
                raise SexprError("(var sort)", *_pos(v))
            decls.append((_atom(v[0], "a variable"), _atom(v[1], "a sort")))
    ws.contexts[name] = VarContext(sig, decls)


def _parse_model(node: list, ws: Workspace) -> None:
    name = _atom_at(node, 1, "a model name")
    alg = ws.algebra(_atom_at(node, 2, "an algebra name"))
    rel_sig = ws.rel_sig()
    rels: dict[str, list[tuple[int, ...]]] = {}
    for form in node[3:]:
        if _head(form) != "rel":
            raise SexprError("model forms are (rel name rows...)", *_pos(form))
        rname = _atom_at(form, 1, "a relation name")
        rows = []
        for row in form[2:]:
            if not isinstance(row, list):
                raise SexprError("a relation row is a list of integers", *_pos(row))
            rows.append(tuple(_int(x, "a relation entry") for x in row))
        rels.setdefault(rname, []).extend(rows)
    ws.models[name] = Model(alg, rel_sig, rels, name=name)


def _parse_clause(node: list, ws: Workspace) -> None:
    name = _atom_at(node, 1, "a clause name")
    kind = _atom_at(node, 2, "a clause kind")
    sig = ws.sig()
    body = node[3:]
    if kind == "identity":
        if len(body) != 1:
            raise SexprError("(clause name identity (t1 t2))", *_pos(node))
        ws.clauses[name] = identity(parse_pair(body[0], sig))
        return
    if kind == "pseudo":
        ws.clauses[name] = pseudo([parse_pair(p, sig) for p in body])
        return
    if kind == "universal":
        pos_pairs: list[Pair] = []
        neg_pairs: list[Pair] = []
        for form in body:
            head = _head(form)
            if head == "pos":
                pos_pairs.extend(parse_pair(p, sig) for p in form[1:])
            elif head == "neg":
                neg_pairs.extend(parse_pair(p, sig) for p in form[1:])
            else:
                raise SexprError("universal clause forms are (pos ...) and (neg ...)", *_pos(form))
        ws.clauses[name] = universal(pos_pairs, neg_pairs)
        return
    if kind == "quasi":
        ante: list[Pair] = []
        cons: Optional[Pair] = None
        saw_cons = False
        for form in body:
            head = _head(form)
            if head == "ante":
                ante.extend(parse_pair(p, sig) for p in form[1:])
            elif head == "cons":
                saw_cons = True
                if len(form) == 2 and form[1] == "false":
                    cons = None
                elif len(form) == 3:
                    cons = (parse_term(form[1], sig), parse_term(form[2], sig))
                else:
                    raise SexprError("(cons t1 t2) or (cons false)", *_pos(form))
            else:
                raise SexprError("quasi clause forms are (ante ...) and (cons ...)", *_pos(form))
        if not saw_cons:
            raise SexprError("quasi clause needs a (cons ...) form", *_pos(node))
        ws.clauses[name] = quasi(ante, cons)
        return
    raise SexprError(f"unknown clause kind {kind!r}", *_pos(node))


def load_workspace(src: str, base: Optional[Workspace] = None) -> Workspace:
    """The forms of ``src`` added to ``base`` (a new Workspace if None).

    They are read without positions. Only if a form is wrong are they read
    again by parse_nodes and added to a copy of ``base`` as it was, so that
    the SexprError raised names the line and column of the fault."""
    ws = base if base is not None else Workspace()
    before = ws.copy()
    try:
        _load_forms(_read(src), ws)
    except SexprError:
        _load_forms(parse_nodes(src), before)
        raise
    return ws


def _load_forms(nodes: list[Node], ws: Workspace) -> None:
    for node in nodes:
        head = _head(node)
        if head == "sort":
            sname = _atom_at(node, 1, "a sort name")
            _end(node, 2)
            if ws._sig is not None:
                raise SexprError("sorts must be declared before algebras or terms")
            ws.sorts.append(sname)
        elif head == "op":
            if ws._sig is not None:
                raise SexprError("operations must be declared before algebras or terms")
            if len(node) != 4 or not isinstance(node[2], list):
                raise SexprError("(op name (argsorts...) result)", *_pos(node))
            ws.op_decls.append(
                (
                    _atom(node[1], "an operation name"),
                    tuple(_atom(a, "a sort name") for a in node[2]),
                    _atom(node[3], "a sort name"),
                )
            )
        elif head == "algebra":
            _parse_algebra(node, ws)
        elif head == "context":
            _parse_context(node, ws)
        elif head == "pairs":
            name = _atom_at(node, 1, "a pairs name")
            ws.pairsets[name] = PairSet(parse_pair(p, ws.sig()) for p in node[2:])
        elif head == "rel-sig":
            if ws._rel_sig is not None:
                raise SexprError("relations must be declared before models or formulas")
            for form in node[1:]:
                if not isinstance(form, list) or not form:
                    raise SexprError("(rel-sig (name sorts...) ...)", *_pos(form))
                ws.rel_decls.append(
                    (
                        _atom(form[0], "a relation name"),
                        tuple(_atom(s, "a sort name") for s in form[1:]),
                    )
                )
        elif head == "model":
            _parse_model(node, ws)
        elif head == "formula":
            name = _atom_at(node, 1, "a formula name")
            ws.formulas[name] = parse_formula(_item(node, 2, "a formula"), ws)
            _end(node, 3)
        elif head == "clause":
            _parse_clause(node, ws)
        else:
            raise SexprError(f"unknown form {head!r}", *_pos(node))


def print_formula(f: Formula) -> str:
    if isinstance(f, Eq):
        return f"(eq {render(f.lhs)} {render(f.rhs)})"
    if isinstance(f, Rel):
        inner = " ".join(render(t) for t in f.args)
        return f"(rel {f.name} {inner})" if inner else f"(rel {f.name})"
    if isinstance(f, And):
        if not f.items:
            return "true"
        return "(and " + " ".join(print_formula(g) for g in f.items) + ")"
    if isinstance(f, Or):
        if not f.items:
            return "false"
        return "(or " + " ".join(print_formula(g) for g in f.items) + ")"
    if isinstance(f, Not):
        return f"(not {print_formula(f.body)})"
    assert isinstance(f, Exists)
    return f"(exists ({' '.join(f.ys)}) {print_formula(f.body)})"


def parse_inline_term(text: str, sig: Signature) -> Term:
    return _placed(_one_term, text, sig)


def _one_term(nodes: list[Node], sig: Signature) -> Term:
    if len(nodes) != 1:
        raise SexprError("expected exactly one term")
    return parse_term(nodes[0], sig)


def parse_inline_pair(text: str, sig: Signature) -> Pair:
    return _placed(_one_pair, text, sig)


def _one_pair(nodes: list[Node], sig: Signature) -> Pair:
    if len(nodes) == 1:
        return parse_pair(nodes[0], sig)
    if len(nodes) == 2:
        return (parse_term(nodes[0], sig), parse_term(nodes[1], sig))
    raise SexprError("expected a pair of terms")


def parse_inline_subst(text: str, sig: Signature) -> Substitution:
    return _placed(_substitution, text, sig)


def _substitution(nodes: list[Node], sig: Signature) -> Substitution:
    if len(nodes) == 1 and isinstance(nodes[0], list) and nodes[0] and isinstance(nodes[0][0], list):
        nodes = nodes[0]
    bindings = {}
    for form in nodes:
        if not isinstance(form, list) or len(form) != 2:
            raise SexprError("substitution entries are (var term)", *_pos(form))
        bindings[_atom(form[0], "a variable")] = parse_term(form[1], sig)
    return Substitution(bindings)
