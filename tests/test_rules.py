import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from uag.algebras import GROUP_SIG, cyclic_group, klein_four, symmetric_group_3
from uag.geometry import random_term
from uag.rules import (
    KINDS,
    Clause,
    SaturationBounds,
    circ_pseudo_member,
    circ_universal_member,
    derive_closure,
    holds_clause,
    identity,
    pseudo,
    quasi,
    rho_membership,
    soundness_check,
    term_universe,
    universal,
)
from uag.terms import VarContext, app, var

X, Y, Z = var("x"), var("y"), var("z")
COMM = (app("mul", X, Y), app("mul", Y, X))
SQ_E = (app("mul", X, X), app("e"))


def test_clause_shape_validation():
    with pytest.raises(ValueError):
        Clause("identity")
    with pytest.raises(ValueError):
        pseudo([])
    with pytest.raises(ValueError):
        universal([], [])
    c = quasi([SQ_E], None)
    assert c.cons is None
    assert identity(COMM).kind == "identity"


def test_holds_identity(z3, s3):
    assert holds_clause(z3, identity(COMM))
    assert not holds_clause(s3, identity(COMM))


def test_holds_pseudo(z2):
    # x=e or x=inv(x): in Z2 inversion is trivial so the second disjunct wins
    c = pseudo([(X, app("e")), (X, app("inv", X))])
    assert holds_clause(z2, c)
    z4 = cyclic_group(4)
    assert not holds_clause(z4, pseudo([(X, app("e"))]))


def test_holds_universal(z2, s3):
    # commutative or some pair collapses
    c = universal([COMM], [])
    assert holds_clause(z2, c)
    assert not holds_clause(s3, c)
    # negated diagonal: fails wherever x = y can hold
    d = universal([], [(X, Y)])
    assert not holds_clause(z2, d)


def test_holds_quasi_and_falsum(z2, z3):
    c = quasi([SQ_E], (X, app("inv", X)))
    assert holds_clause(z2, c)
    assert holds_clause(z3, c)
    # falsum: antecedent must never fire; x*x = e fires at x = e
    f = quasi([SQ_E], None)
    assert not holds_clause(z2, f)


CTX2 = VarContext(GROUP_SIG, [("x", "g"), ("y", "g")])
SMALL_GROUPS = [cyclic_group(2), cyclic_group(3), klein_four(), symmetric_group_3()]


@given(st.sampled_from(SMALL_GROUPS), st.integers(0, 2**32))
def test_holds_clause_matches_oracle(g, seed):
    rng = random.Random(seed)
    pairs = [tuple(random_term(rng, GROUP_SIG, CTX2, 2, 0) for _ in "ab") for _ in range(4)]
    k = rng.randint(1, 3)
    clauses = [
        identity(pairs[0]),
        pseudo(pairs[:k]),
        universal(pairs[1:k], pairs[k:]),
        quasi(pairs[1 : k + 1], pairs[0]),
        quasi(pairs[1 : k + 1], None),
    ]
    assert {c.kind for c in clauses} == set(KINDS)
    for c in clauses:
        assert holds_clause(g, c, CTX2) == oracles.o_clause_holds(g, CTX2, c), c


def test_rho_membership_transitivity():
    assert rho_membership([(X, Y), (Y, Z)], (X, Z))
    assert not rho_membership([(X, Y)], (X, Z))


def test_circ_pseudo_composition():
    premises = [pseudo([(X, Y)]), pseudo([(Y, Z)])]
    assert circ_pseudo_member(premises, pseudo([(X, Z)]))
    assert not circ_pseudo_member(premises, pseudo([(X, app("e"))]))


def test_circ_pseudo_weakening():
    premises = [pseudo([(X, Y)])]
    assert circ_pseudo_member(premises, pseudo([(X, Y), (X, app("e"))]))


def test_circ_universal_polarity():
    premises = [universal([(X, Y)], []), universal([(Y, Z)], [])]
    cand = universal([(X, Z)], [])
    assert circ_universal_member(premises, cand)
    # moving the conclusion into the negative side flips it into a premise
    flipped = universal([], [(X, Z)])
    assert not circ_universal_member(premises, flipped)


def test_term_universe_layering():
    ctx = VarContext(GROUP_SIG, [("x", "g")])
    u0 = term_universe(GROUP_SIG, ctx, 0)
    assert [t for t in u0] == [X]
    u1 = term_universe(GROUP_SIG, ctx, 1)
    assert app("e") in u1 and app("mul", X, X) in u1


def test_derive_identity_closure_sound(z3):
    ctx = VarContext(GROUP_SIG, [("x", "g"), ("y", "g")])
    res = derive_closure("identity", [COMM], GROUP_SIG, ctx=ctx)
    assert len(res.clauses) > 1
    for c in res.clauses:
        assert holds_clause(z3, c), c
    again = derive_closure("identity", [COMM], GROUP_SIG, ctx=ctx)
    assert [c.key() for c in res.clauses] == [c.key() for c in again.clauses]


def test_derive_respects_budget():
    res = derive_closure(
        "identity", [COMM], GROUP_SIG, bounds=SaturationBounds(budget=5, iterations=1)
    )
    assert res.exhausted


def test_derive_quasi_has_own_conjunct_axioms():
    res = derive_closure(
        "quasi",
        [quasi([SQ_E], (X, app("inv", X)))],
        GROUP_SIG,
        bounds=SaturationBounds(iterations=1, budget=500),
    )
    keys = {c.key() for c in res.clauses}
    assert quasi([SQ_E], SQ_E).key() in keys


def test_derive_falsum_needs_flag():
    with pytest.raises(ValueError):
        derive_closure("quasi", [quasi([SQ_E], None)], GROUP_SIG)
    res = derive_closure(
        "quasi",
        [quasi([SQ_E], None)],
        GROUP_SIG,
        quackenbush=True,
        bounds=SaturationBounds(iterations=1, budget=300),
    )
    assert any(c.cons is None for c in res.clauses)


def test_soundness_check_filters_by_seeds():
    pool = [cyclic_group(2), cyclic_group(3), klein_four(), symmetric_group_3()]
    seeds = [identity(COMM)]
    res = derive_closure(
        "identity", seeds, GROUP_SIG, bounds=SaturationBounds(iterations=2, budget=2000)
    )
    # S3 fails the seed, so it never counts as a violation
    assert soundness_check(res.clauses, seeds, pool) == []


def test_derive_each_kind_sound_small():
    pool = [cyclic_group(2), cyclic_group(4), klein_four(), symmetric_group_3()]
    cases = {
        "identity": [identity(COMM)],
        "pseudo": [pseudo([SQ_E])],
        "universal": [universal([COMM], [])],
        "quasi": [quasi([SQ_E], (X, app("inv", X)))],
    }
    bounds = SaturationBounds(depth=2, width=1, iterations=2, budget=1200)
    for kind, seeds in cases.items():
        res = derive_closure(kind, seeds, GROUP_SIG, bounds=bounds)
        assert soundness_check(res.clauses, seeds, pool) == [], kind
