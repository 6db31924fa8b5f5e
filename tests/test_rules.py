import functools
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from uag import rules
from uag.algebras import GROUP_SIG, FiniteAlgebra, cyclic_group, inferred_context, klein_four, symmetric_group_3
from uag.config import CapExceeded
from uag.congruences import GroundCongruence, PairSet, ground_closure
from uag.geometry import random_term
from uag.rules import (
    KINDS,
    Clause,
    SaturationBounds,
    derive_closure,
    holds_clause,
    identity,
    pseudo,
    quasi,
    soundness_check,
    term_universe,
    universal,
)
from uag.terms import Signature, VarContext, app, var

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


def test_equal_clauses_hash_alike():
    """A clause's hash, kept from construction, follows its normalized
    fields, so equal clauses meet in sets and dicts."""
    t = app("mul", X, Y)
    pairs = [(identity((t, X)), identity((X, t))), (quasi([SQ_E], (t, X)), quasi([SQ_E], (X, t))),
             (pseudo([COMM, SQ_E]), pseudo([SQ_E, COMM])), (universal([COMM], [SQ_E]), universal([COMM], [SQ_E]))]
    for c, d in pairs:
        assert c == d and hash(c) == hash(d) == hash((c.kind, c.cons, c.pos, c.neg, c.ante))
        assert len({c, d}) == 1
    assert identity((t, X)) != quasi([], (t, X))
    assert Clause._fields == ("kind", "cons", "pos", "neg", "ante")


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
    assert ground_closure(PairSet([(X, Y), (Y, Z)])).contains((X, Z))
    assert not ground_closure(PairSet([(X, Y)])).contains((X, Z))


def test_circ_pseudo_composition():
    premises = [pseudo([(X, Y)]), pseudo([(Y, Z)])]
    assert rules._derived_mask(premises, *rules._grouped([pseudo([(X, Z)])], ()), {})
    assert not rules._derived_mask(premises, *rules._grouped([pseudo([(X, app("e"))])], ()), {})


def test_circ_pseudo_weakening():
    premises = [pseudo([(X, Y)])]
    assert rules._derived_mask(premises, *rules._grouped([pseudo([(X, Y), (X, app("e"))])], ()), {})


def test_circ_universal_polarity():
    premises = [universal([(X, Y)], []), universal([(Y, Z)], [])]
    cand = universal([(X, Z)], [])
    assert rules._derived_mask(premises, *rules._grouped([cand], ()), {})
    # moving the conclusion into the negative side flips it into a premise
    flipped = universal([], [(X, Z)])
    assert not rules._derived_mask(premises, *rules._grouped([flipped], ()), {})


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


CTX3 = VarContext(GROUP_SIG, [("x", "g"), ("y", "g"), ("z", "g")])


def _random_clause(rng, kind, pairs):
    if kind == "identity":
        return identity(rng.choice(pairs))
    if kind == "pseudo":
        return pseudo(rng.sample(pairs, rng.randint(1, 2)))
    if kind == "universal":
        return universal(rng.sample(pairs, rng.randint(0, 1)), rng.sample(pairs, 1))
    return quasi(rng.sample(pairs, rng.randint(0, 2)), rng.choice(pairs))


@given(st.sampled_from(KINDS), st.integers(0, 2**32))
def test_soundness_check_matches_the_per_clause_loop(kind, seed):
    """Sharing points and columns per algebra and context leaves the
    violations, and their order, those of one holds_clause per clause, with
    a given context and with each clause's own, over clauses whose variable
    sets differ."""
    rng = random.Random(seed)
    pool = SMALL_GROUPS + [cyclic_group(4)]
    pairs = []
    while len(pairs) < 6:
        w, w2 = (random_term(rng, GROUP_SIG, CTX3, rng.randint(0, 2), 0) for _ in "ab")
        if w is not w2:
            pairs.append((w, w2))
    seeds = [_random_clause(rng, kind, pairs[:3])]
    if kind == "quasi" and seeds[0].cons is None:
        seeds = [quasi(seeds[0].ante, pairs[0])]
    res = derive_closure(kind, seeds, GROUP_SIG, bounds=SaturationBounds(depth=2, width=1, iterations=2, budget=300))
    # two clauses that fail in Z3, one over x alone and one over x, y and z
    lift = {"identity": identity, "pseudo": lambda q: pseudo([q]), "universal": lambda q: universal([q], []),
            "quasi": lambda q: quasi([], q)}[kind]
    derived = list(res.clauses) + [_random_clause(rng, kind, pairs) for _ in range(6)]
    derived += [lift((X, app("inv", X))), lift((app("mul", X, Y), Z))]
    rng.shuffle(derived)
    assert len({inferred_context(GROUP_SIG, c.terms()).vars for c in derived}) > 1
    for ctx in (CTX3, None):
        for checked in ([], seeds):
            want = oracles.o_soundness_check(derived, checked, pool, ctx)
            assert soundness_check(derived, checked, pool, ctx) == want
            assert checked or want


TWO_SIG = Signature(("a", "b"), [("f", ("b",), "a"), ("m", ("a", "a"), "a")])
TWO = FiniteAlgebra(
    TWO_SIG, (2, 3), {"f": {(0,): 1, (1,): 0, (2,): 1}, "m": {(i, j): (i + j) % 2 for i in range(2) for j in range(2)}}
)


def test_soundness_check_raises_where_the_per_clause_loop_does():
    """A bad clause after good ones raises the error, and at the clause, of
    one holds_clause per clause, also when its subterms were evaluated for an
    earlier clause."""
    x, y = var("x"), var("y")
    fy = app("f", y)
    good = [identity((app("m", x, x), x)), pseudo([(fy, x), (app("m", fy, x), x)])]
    bad = {
        "sides": identity((fy, y)),
        "argument": pseudo([(app("m", x, y), x)]),
        "op": universal([(fy, x)], [(app("h", x), x)]),
    }
    ctx = VarContext(TWO_SIG, [("x", "a"), ("y", "b")])
    for first, second in itertools.permutations(bad.values(), 2):
        derived = good + [first] + good + [second]
        for c in (ctx, None):
            with pytest.raises(ValueError) as want:
                oracles.o_soundness_check(derived, [], [TWO], c)
            with pytest.raises(ValueError) as got:
                soundness_check(derived, [], [TWO], c)
            assert str(got.value) == str(want.value)
    # past the cap at the second algebra, with each clause's context too
    derived = [identity(COMM), identity((app("mul", X, app("e")), X))]
    for c in (CTX2, None):
        with pytest.raises(CapExceeded) as want:
            oracles.o_soundness_check(derived, [], [cyclic_group(2), cyclic_group(3)], c, cap=4)
        with pytest.raises(CapExceeded) as got:
            soundness_check(derived, [], [cyclic_group(2), cyclic_group(3)], c, cap=4)
        assert str(got.value) == str(want.value)


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


def _random_pairs(rng, n, depth):
    out = []
    while len(out) < n:
        w, w2 = (random_term(rng, GROUP_SIG, CTX2, depth, 0) for _ in "ab")
        if w is not w2:
            out.append((w, w2))
    return out


def _random_pool(rng, pairs, n):
    """n premises mixing equations and negated equations over pairs."""
    pool = []
    for _ in range(n):
        pos = rng.sample(pairs, rng.randint(0, 2))
        neg = rng.sample(pairs, rng.randint(0 if pos else 1, 1))
        pool.append(universal(pos, neg))
    return pool


def _random_candidates(rng, pairs):
    """Negation-free candidates, candidates with a negated side, and one with
    only a negated side."""
    qs = pairs[:3]
    out = [universal([q], []) for q in qs]
    out += [universal([q], [r]) for q in qs for r in qs if q != r]
    out.append(universal([], [rng.choice(pairs)]))
    return out


@given(st.integers(0, 2**32))
def test_composition_engine_matches_oracle(seed):
    """One bitmask per premise combination, over every candidate and with
    closures shared across combinations, answers as the oracle's fresh
    relabeling closure per test does."""
    rng = random.Random(seed)
    pairs = _random_pairs(rng, 5, rng.randint(1, 2))
    pool = _random_pool(rng, pairs, 3)
    candidates = _random_candidates(rng, pairs)
    groups, todo = rules._grouped(candidates, ())
    closures = {}
    for k in (1, 2, 3):
        for prem in itertools.combinations(pool, k):
            want = [oracles.o_circ_member(prem, cand) for cand in candidates]
            mask = rules._derived_mask(prem, groups, todo, closures)
            assert [bool(mask >> i & 1) for i in range(len(candidates))] == want, prem
    # past the choice cap nothing is derived, not even a candidate the
    # premises derive: each of these two premises has 2 literals, so 4 choices
    cand = universal([pairs[0]], [pairs[1]])
    prem = [cand, universal([pairs[1]], [pairs[2]])]
    assert oracles.o_circ_member(prem, cand)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rules, "_CHOICE_CAP", 4)
        assert rules._derived_mask(prem, *rules._grouped([cand], ()), {})
        m.setattr(rules, "_CHOICE_CAP", 3)
        assert not rules._derived_mask(prem, *rules._grouped([cand], ()), {})
        assert rules._derived_mask(prem, groups, todo, closures) == 0


@given(st.integers(0, 2**32))
def test_composition_step_keeps_the_budget_order(seed):
    """At every budget from 0 to past the last test, a composition step
    derives what the one-test-at-a-time oracle loop derives, leaves the same
    budget, and runs out at the same point."""
    rng = random.Random(seed)
    pairs = _random_pairs(rng, 5, rng.randint(1, 2))
    cur = _random_pool(rng, pairs, 3)
    candidates = _random_candidates(rng, pairs) + cur[:1]
    sizes = rng.choice([(1, 2), (1, 2, 3)])
    member = functools.lru_cache(maxsize=None)(oracles.o_circ_member)
    tests = len(candidates) * sum(math.comb(len(cur), k) for k in sizes)
    closures = {}
    for n in range(tests + 2):
        budget = rules._Budget(n)
        got = rules._composed(cur, candidates, sizes, closures, budget)
        assert (got, budget.left, budget.exhausted) == oracles.o_composed(cur, candidates, sizes, n, member), n


def _count_closures(monkeypatch):
    """Patch GroundCongruence to record the closures built from scratch and
    the clones, with the pairs merged into each clone; returns both lists."""
    built, clones = [], []
    init, copy, merge = GroundCongruence.__init__, GroundCongruence.copy, GroundCongruence.merge

    def counting_init(self):
        built.append(self)
        init(self)

    def counting_copy(self):
        gc = copy(self)
        clones.append((gc, set()))
        return gc

    def recording_merge(self, a, b):
        for gc, merged in clones:
            if gc is self:
                merged.add((a, b))
        merge(self, a, b)

    monkeypatch.setattr(GroundCongruence, "__init__", counting_init)
    monkeypatch.setattr(GroundCongruence, "copy", counting_copy)
    monkeypatch.setattr(GroundCongruence, "merge", recording_merge)
    return built, clones


def test_pseudo_run_closes_each_premise_set_once(monkeypatch):
    """Every closure cloned in one pseudo run is of a new premise set."""
    _, clones = _count_closures(monkeypatch)
    seeds = [pseudo(_random_pairs(random.Random(2), 2, 1))]
    bounds = SaturationBounds(depth=2, width=1, iterations=2, budget=1500)
    res = derive_closure("pseudo", seeds, GROUP_SIG, CTX2, bounds)
    closed = [frozenset(merged) for _, merged in clones]
    assert res.rounds == 2 and len(closed) > 20
    assert len(closed) == len(set(closed))


def test_pseudo_run_builds_one_closure_from_scratch(monkeypatch):
    """One pseudo run builds its root closure from scratch once and clones
    it for every premise set."""
    built, clones = _count_closures(monkeypatch)
    seeds = [pseudo(_random_pairs(random.Random(2), 2, 1))]
    bounds = SaturationBounds(depth=2, width=1, iterations=2, budget=1500)
    derive_closure("pseudo", seeds, GROUP_SIG, CTX2, bounds)
    assert len(built) == 1 and len(clones) > 20


# sha256 of repr((exhausted, rounds, [repr(c) for c in clauses])), computed
# before premise closures were shared; pins the output and the budget order
DERIVE_PINS = {
    ("identity", 1, 300): "fdd96697fec2375c7c37462e150047351e459711f6c19954f190b185071f6f58",
    ("identity", 1, 1500): "2fd7e71e4dca8635896bb2591d9117fb1f9e9f7271a79256774eb13eaa82960b",
    ("identity", 2, 300): "033d6890609e2b6513f5c7c039d5675f30f0ed05cf96aa7762ad08db38111314",
    ("identity", 2, 1500): "033d6890609e2b6513f5c7c039d5675f30f0ed05cf96aa7762ad08db38111314",
    ("identity", 3, 300): "fd2baf48369621bb4ea841a1f242f89753b388a474718b7483c3c34c938670fb",
    ("identity", 3, 1500): "2df4d8b8588deb7d5b85a5d65f0f64e1ca2a8c9355a12f9b8613031497d21028",
    ("pseudo", 1, 300): "f1da6cdec726d4fe7b098af84fd5be0ae7fd382cdd42af1a793ab82d979bcfc4",
    ("pseudo", 1, 1500): "1da89b2fed0279977a7e33079899b7c2336a4653f5f1fa6efba69b3d7e43ef18",
    ("pseudo", 2, 300): "db49cca2e3261af979872524a8741967927b7a0a69340cbd2b75eac38eb44fdd",
    ("pseudo", 2, 1500): "69e7ab237c0eacdafa7ed87d2e7c54c3966e111b3d6996e9042b8c9a36a634e4",
    ("pseudo", 3, 300): "88a6178b7629044826ec7e93c47b00b58b7d986cb62b518ba8523b8aebc109a6",
    ("pseudo", 3, 1500): "88a6178b7629044826ec7e93c47b00b58b7d986cb62b518ba8523b8aebc109a6",
    ("universal", 1, 300): "86c5a8719dc522f7a6214277387e6c87440a2eae7ae00d1acaf2906059b8b82b",
    ("universal", 1, 1500): "76eaa0f9190ec1034fb5c02b4edd46be6425704a856ac851de8bcf30334e857b",
    ("universal", 2, 300): "ad3acb95005027d4647bd96803f620afa1b2aef31abf1174f31607e54a4feb26",
    ("universal", 2, 1500): "f523a6fada252c4e5e888dfa84c4146f5cb35022f1e1b1f290d51bfaf068ddd4",
    ("universal", 3, 300): "2b58059b15bb6d571fda3a78109061c9a98c358c23d409d119ef0a8f996c3924",
    ("universal", 3, 1500): "7515c5d187a1cfe9ee777c7ee1157a48dbf5c27c69d8609cbbb2fbb29a13086f",
    ("quasi", 1, 300): "d0ba18dab06c73cd5d1f248b2c7f0e79d692379e9c4b479578ea6eddc7ebebd5",
    ("quasi", 1, 1500): "d0ba18dab06c73cd5d1f248b2c7f0e79d692379e9c4b479578ea6eddc7ebebd5",
    ("quasi", 2, 300): "1b068a0fd543ad5b1c5005f0a787f143a8554027e61c6c4056d9bb4611e59c38",
    ("quasi", 2, 1500): "1b068a0fd543ad5b1c5005f0a787f143a8554027e61c6c4056d9bb4611e59c38",
    ("quasi", 3, 300): "a37b8f0106723707a101de02d1c0c982687842fcbc8b057ca00e69ee42f3c101",
    ("quasi", 3, 1500): "a37b8f0106723707a101de02d1c0c982687842fcbc8b057ca00e69ee42f3c101",
}


@pytest.mark.parametrize("kind", KINDS)
def test_derive_closure_pinned(kind):
    exhausted = []
    for seed, budget in itertools.product((1, 2, 3), (300, 1500)):
        p1, p2, p3 = _random_pairs(random.Random(seed), 3, 1)
        seeds = {
            "identity": [identity(p1)],
            "pseudo": [pseudo([p1, p2])],
            "universal": [universal([p1], [p2])],
            "quasi": [quasi([p1], p2), quasi([], p3)],
        }[kind]
        bounds = SaturationBounds(depth=2, width=1, iterations=2, budget=budget)
        res = derive_closure(kind, seeds, GROUP_SIG, CTX2, bounds)
        text = repr((res.exhausted, res.rounds, [repr(c) for c in res.clauses]))
        assert hashlib.sha256(text.encode()).hexdigest() == DERIVE_PINS[(kind, seed, budget)], (seed, budget)
        exhausted.append(res.exhausted)
    # the composition kinds must run out mid-step at budget 300
    assert kind == "quasi" or any(exhausted)
