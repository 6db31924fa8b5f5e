import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from uag.algebras import GROUP_SIG
from uag.congruences import EMPTY_PAIRS, PairSet, normalize_pair
from uag.geometry import (
    Equivalent,
    FaithfulVerdict,
    Inconclusive,
    MorphismCheck,
    NotEquivalent,
    NullstellensatzReport,
    VarietyIso,
)
from uag.logic import And, Eq, Exists, FundamentalReport, Not, OpenVarietyReport, Or, Rel
from uag.reports import to_jsonable
from uag.rules import Clause, DeriveResult, SaturationBounds, identity
from uag.sexpr import parse_nodes, parse_term
from uag.terms import (
    IDENTITY,
    Op,
    Signature,
    Substitution,
    Value,
    VarContext,
    adjoin_constants,
    app,
    apply_subst,
    compose,
    constant_name,
    render,
    sort_of,
    subterm_universe,
    term_depth,
    term_key,
    term_size,
    term_vars,
    var,
    well_sorted,
)


def test_interning_identity():
    assert var("x") is var("x")
    t1 = app("mul", var("x"), var("y"))
    t2 = app("mul", var("x"), var("y"))
    assert t1 is t2
    assert app("mul", var("y"), var("x")) is not t1


def test_render_shapes():
    assert render(var("x")) == "x"
    assert render(app("e")) == "e"
    assert render(app("mul", var("x"), app("inv", var("y")))) == "(mul x (inv y))"


def test_sizes_and_depth():
    t = app("mul", var("x"), app("inv", var("y")))
    assert term_size(var("x")) == 1
    assert term_size(t) == 4
    assert term_depth(var("x")) == 0
    assert term_depth(app("e")) == 1
    assert term_depth(t) == 2


def test_term_vars_first_occurrence_order():
    t = app("mul", var("y"), app("mul", var("x"), var("y")))
    assert term_vars(t) == ["y", "x"]


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((), ())
    with pytest.raises(ValueError):
        Signature(("g", "g"), ())
    with pytest.raises(ValueError):
        Signature(("g",), [("f", ("h",), "g")])
    sig = GROUP_SIG
    assert sig.op("mul").arity == 2
    assert not sig.has_op("nope")


def test_context_lookup(gctx2):
    assert gctx2.position("y") == 1
    assert gctx2.names == ("x", "y")
    with pytest.raises(ValueError):
        gctx2.position("q")
    with pytest.raises(ValueError):
        VarContext(GROUP_SIG, [("x", "g"), ("x", "g")])


def test_sorting_checks(gctx2):
    t = app("mul", var("x"), app("e"))
    assert sort_of(t, GROUP_SIG, gctx2) == 0
    assert well_sorted(t, GROUP_SIG, gctx2)
    bad = app("mul", var("x"))
    assert not well_sorted(bad, GROUP_SIG, gctx2)


def test_substitution_apply():
    s = Substitution({"x": app("inv", var("y"))})
    t = app("mul", var("x"), var("x"))
    assert apply_subst(s, t) is app("mul", app("inv", var("y")), app("inv", var("y")))
    assert apply_subst(IDENTITY, t) is t
    assert s("x") is app("inv", var("y"))
    assert s("z") is var("z")


simple_terms = st.recursive(
    st.sampled_from([var("x"), var("y"), app("e")]),
    lambda kids: st.builds(lambda a, b: app("mul", a, b), kids, kids)
    | st.builds(lambda a: app("inv", a), kids),
    max_leaves=6,
)

substs = st.dictionaries(
    st.sampled_from(["x", "y"]), simple_terms, min_size=0, max_size=2
).map(Substitution)


@given(substs, substs, simple_terms)
def test_compose_law(s1, s2, t):
    assert apply_subst(compose(s1, s2), t) is apply_subst(s1, apply_subst(s2, t))


@given(simple_terms)
def test_term_key_orders_by_size_first(t):
    k = term_key(t)
    assert k[0] == term_size(t)
    assert k[1] == render(t)
    assert term_size(t) == oracles.o_term_size(t)
    assert term_depth(t) == oracles.o_term_depth(t)
    assert k == (oracles.o_term_size(t), render(t))
    assert term_key(t) is k


def test_deep_term_size_and_depth():
    t = app("e")
    for _ in range(5000):
        t = app("inv", t)
    assert term_size(t) == 5001
    assert term_depth(t) == 5001


def test_render_matches_the_recursive_form_at_every_depth():
    """Terms deeper than DEEP_TERM take render's loop; the text, and its
    parse, stay those of the recursive form, with the deep branch on either
    side of a binary op."""
    rng = random.Random(5)
    t = var("x")
    while term_depth(t) <= 300:
        text = render(t)
        assert text == oracles.o_render(t), term_depth(t)
        assert parse_term(parse_nodes(text)[0], GROUP_SIG) is t, term_depth(t)
        shallow = rng.choice([var("y"), app("e"), app("inv", var("x"))])
        t = rng.choice([app("inv", t), app("mul", t, shallow), app("mul", shallow, t)])


def test_subterm_universe_dedup():
    t = app("mul", var("x"), var("x"))
    u = subterm_universe([t, var("x")])
    assert len(u) == 2


def test_adjoin_constants(z4):
    sig_c, ground = adjoin_constants(GROUP_SIG, z4)
    assert sig_c.has_op("c0") and sig_c.has_op("c3")
    assert constant_name(sig_c, 0, 2) == "c2"
    # one diagram pair per table entry: 4*4 for mul, 4 for inv, 1 for e
    assert len(ground) == 16 + 4 + 1
    with pytest.raises(ValueError):
        bad_sig = Signature(("g",), [("c0", (), "g")])
        adjoin_constants(bad_sig, z4)


_X, _Y = var("x"), var("y")
_EQ = Eq(_X, _Y)
# each value class: its fields in declaration order, its __init__ arguments
# in order with sample values, and the defaults of those that have one
VALUE_CLASSES = [
    (Op, ("name", "args", "result"), [("name", "mul"), ("args", (0, 0)), ("result", 0)], {}),
    (Eq, ("lhs", "rhs"), [("lhs", _X), ("rhs", _Y)], {}),
    (Rel, ("name", "args"), [("name", "P"), ("args", (_X,))], {}),
    (And, ("items",), [("items", (_EQ,))], {}),
    (Or, ("items",), [("items", (_EQ,))], {}),
    (Not, ("body",), [("body", _EQ)], {}),
    (Exists, ("ys", "body"), [("ys", ("y",)), ("body", _EQ)], {}),
    (
        FundamentalReport,
        ("relation", "open_formula", "positive_formula", "sub_value", "restricted_value"),
        [("relation", "equal"), ("open_formula", True), ("positive_formula", False), ("sub_value", 3), ("restricted_value", 3)],
        {},
    ),
    (
        OpenVarietyReport,
        ("agrees", "all_open", "mismatches"),
        [("agrees", False), ("all_open", True), ("mismatches", ((0, 1),))],
        {},
    ),
    (
        Clause,
        ("kind", "cons", "pos", "neg", "ante"),
        [("kind", "quasi"), ("cons", normalize_pair((_X, _Y))), ("pos", EMPTY_PAIRS), ("neg", EMPTY_PAIRS),
         ("ante", PairSet([(app("e"), _X)]))],
        {"cons": None, "pos": EMPTY_PAIRS, "neg": EMPTY_PAIRS, "ante": EMPTY_PAIRS},
    ),
    (
        SaturationBounds,
        ("depth", "width", "iterations", "budget"),
        [("depth", 3), ("width", 1), ("iterations", 4), ("budget", 99)],
        {"depth": 2, "width": 2, "iterations": 6, "budget": 20000},
    ),
    (
        DeriveResult,
        ("clauses", "exhausted", "rounds"),
        [("clauses", (identity((_X, _X)),)), ("exhausted", False), ("rounds", 2)],
        {},
    ),
    (
        MorphismCheck,
        ("ok", "failing_point", "image_point"),
        [("ok", False), ("failing_point", (0,)), ("image_point", (1,))],
        {"failing_point": None, "image_point": None},
    ),
    (Equivalent, ("verdict", "mode", "notice"), [("mode", "exact"), ("notice", "n")], {"notice": ""}),
    (
        NotEquivalent,
        ("verdict", "equations", "pair", "holds_in", "fails_in", "notice"),
        [("equations", PairSet([(_X, _Y)])), ("pair", (_X, _Y)), ("holds_in", "A"), ("fails_in", "B"), ("notice", "n")],
        {"notice": ""},
    ),
    (Inconclusive, ("verdict", "samples", "notice"), [("samples", 40), ("notice", "n")], {"notice": ""}),
    (VarietyIso, ("forward", "backward"), [("forward", IDENTITY), ("backward", Substitution({"x": _Y}))], {}),
    (FaithfulVerdict, ("status", "witness"), [("status", "unknown"), ("witness", (_X, _Y))], {"witness": None}),
    (
        NullstellensatzReport,
        ("agrees", "meet_agrees", "image_sizes", "quotient_sizes", "hom_count", "separating"),
        [("agrees", True), ("meet_agrees", True), ("image_sizes", (4,)), ("quotient_sizes", (4,)), ("hom_count", 2),
         ("separating", (_X, _Y))],
        {"separating": None},
    ),
]
VERDICTS = {Equivalent: "equivalent", NotEquivalent: "not-equivalent", Inconclusive: "inconclusive"}


@pytest.mark.parametrize("cls, fields, args, defaults", VALUE_CLASSES, ids=[c.__name__ for c, *_ in VALUE_CLASSES])
def test_value_classes_are_frozen_records(cls, fields, args, defaults):
    """Every value class builds by position and by keyword with the same
    defaults, is equal to and hashes as its field tuple within its class,
    refuses assignment, keeps no __dict__, and shows and lists its fields
    in declaration order (a verdict's tag first in JSON, not in the repr)."""
    v = cls(*[a for _, a in args])
    assert v == cls(**dict(args)) and v is not cls(**dict(args))
    assert all(getattr(v, name) == a for name, a in args)
    bare = cls(**{name: a for name, a in args if name not in defaults})
    assert {name: getattr(bare, name) for name in defaults} == defaults
    values = tuple(getattr(v, f) for f in fields)
    assert hash(v) == hash(values) and hash(v) == hash(cls(*[a for _, a in args]))
    assert v != values and not hasattr(v, "__dict__")
    for name in (fields[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(v, name, None)
    with pytest.raises(AttributeError):
        delattr(v, fields[-1])
    if cls in VERDICTS:
        assert v.verdict == VERDICTS[cls] and fields[0] == "verdict"
    if cls in (Clause, DeriveResult):
        assert cls._fields == fields  # their JSON is spelled out, not their field list
    else:
        assert list(to_jsonable(v)) == list(fields)
        assert repr(v) == f"{cls.__name__}({', '.join(f'{name}={a!r}' for name, a in args)})"


@pytest.mark.parametrize("cls, fields, args, defaults", VALUE_CLASSES, ids=[c.__name__ for c, *_ in VALUE_CLASSES])
def test_value_classes_refuse_a_bad_call(cls, fields, args, defaults):
    """Too many arguments, an unknown keyword, a field given both by
    position and by keyword, and a missing required argument each raise
    TypeError, as they would from a function with the class's signature."""
    values = [a for _, a in args]
    first, value = args[0]
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    with pytest.raises(TypeError):
        cls(*values, **{first: value})
    required = [name for name, _ in args if name not in defaults]
    if required:
        with pytest.raises(TypeError):
            cls(**{name: a for name, a in args if name != required[0]})


def test_a_default_must_name_a_field():
    with pytest.raises(TypeError, match=r"Bad: defaults for what are not fields: \['depth'\]"):
        class Bad(Value):
            __slots__ = _fields = ("size",)
            _defaults = {"depth": 0}


def test_values_of_different_classes_differ():
    assert And(()) == And(()) and And(()) != Or(()) and hash(And(())) == hash(Or(()))
    assert len({And(()), Or(()), Not(_EQ), Not(_EQ)}) == 3
    assert Equivalent("exact") != Inconclusive("exact")
    assert Eq(_X, _Y) != Eq(_Y, _X) and Rel("P", (_X,)) != Rel("Q", (_X,))
