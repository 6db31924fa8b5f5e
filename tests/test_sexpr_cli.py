import argparse
import contextlib
import io
import itertools
import json
import random
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import uag.cli as cli
import uag.geometry as geometry
import uag.sexpr as sexpr
from uag.cli import main
from uag.config import CapExceeded
from uag.geometry import NotEquivalent
from uag.logic import And, Eq, Exists, Not, Or, Rel
from uag.reports import emit
from uag.sexpr import (
    SexprError,
    load_workspace,
    parse_formula,
    parse_inline_pair,
    parse_inline_subst,
    parse_inline_term,
    parse_nodes,
    parse_term,
    print_formula,
)
from uag.terms import app, render, var

WS = """
(sort g)
(op mul (g g) g)
(op inv (g) g)
(op e () g)
(algebra Z2
  (carrier g 2)
  (table mul (0 0 0) (0 1 1) (1 0 1) (1 1 0))
  (table inv (0 0) (1 1))
  (table e (0)))
(context C2 (x g) (y g))
(pairs T ((mul x x) e))
(rel-sig (P g))
(model M Z2 (rel P (1)))
(formula q (exists (y) (not (eq x y))))
(clause comm identity ((mul x y) (mul y x)))
(clause branch pseudo (x e) (y e))
(clause mixed universal (pos (x y)) (neg (x e)))
(clause imp quasi (ante ((mul x x) e)) (cons x (inv x)))
(clause boom quasi (ante (x y)) (cons false))
"""


def test_tokenize_positions():
    [form] = parse_nodes("(a\n  b ())")
    assert [(t, t.line, t.col) for t in form[:2]] == [("a", 1, 2), ("b", 2, 3)]
    assert (form[2].line, form[2].col) == (2, 5)


def test_tokenize_comments():
    [form] = parse_nodes("(a ; comment (here\n b)")
    assert form == ["a", "b"]


def test_parse_unclosed():
    with pytest.raises(SexprError, match="unclosed"):
        parse_nodes("(a (b)")
    with pytest.raises(SexprError, match="unexpected"):
        parse_nodes(")")


def _shape(node):
    if isinstance(node, list):
        return [_shape(n) for n in node]
    return (node, node.line, node.col)


@settings(max_examples=400)
@given(st.text(alphabet="() \t\r\n;ab1-\f\u00e9", max_size=60))
def test_reader_matches_oracle(src):
    try:
        want = ("ok", oracles.o_parse_nodes(src))
    except ValueError as e:
        want = ("error", str(e))
    try:
        got = ("ok", [_shape(n) for n in parse_nodes(src)])
    except SexprError as e:
        got = ("error", str(e))
    assert got == want


def test_reader_nests_deeper_than_the_recursion_limit():
    depth = 5000
    [node] = parse_nodes("(" * depth + "x" + ")" * depth)
    for _ in range(depth):
        [node] = node
    assert (node, node.line, node.col) == ("x", 1, depth + 1)


def test_reader_makes_one_atom_per_symbol(monkeypatch):
    """Parentheses are structure only: the one Atom made per symbol is the
    only object the reader makes per token."""
    made = []

    class Counted(sexpr.Atom):
        __slots__ = ()

        def __init__(self, text, line, col):
            made.append((text, line, col))
            super().__init__(text, line, col)

    monkeypatch.setattr(sexpr, "Atom", Counted)
    assert [_shape(n) for n in parse_nodes(WS)] == oracles.o_parse_nodes(WS)
    assert made == [t for t in oracles.o_tokenize(WS) if t[0] not in "()"]


def _symbols(tree):
    """The symbols of a reader's tree, left to right."""
    stack, out = [tree], []
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(reversed(node))
        else:
            out.append(node)
    return out


@settings(max_examples=400)
@given(st.text(alphabet="() \t\r\n;ab1-\f\u00e9\v\u00a0", max_size=60))
def test_positionless_reader_agrees_with_parse_nodes(src):
    """The reader workspaces are loaded with gives parse_nodes' tree of
    texts, every symbol a plain str, or raises where parse_nodes raises."""
    try:
        want = parse_nodes(src)
    except SexprError:
        want = None
    try:
        got = sexpr._read(src)
    except SexprError:
        got = None
    assert got == want  # an Atom equals its text, an EmptyForm []
    if got is not None:
        assert all(type(s) is str for s in _symbols(got))


def test_positionless_reader_nests_deeper_than_the_recursion_limit():
    depth = 5000
    for read in (sexpr._read, parse_nodes):
        [node] = read("(" * depth + "x" + ")" * depth)
        for _ in range(depth):
            [node] = node
        assert node == "x"
        for src in ("(" * depth + "x", "x" + ")" * depth):
            with pytest.raises(SexprError, match="unclosed|unexpected"):
                read(src)


def _raised(load):
    """The text of the error load raises, with the error's class; None if it
    raises none."""
    try:
        load()
    except ValueError as e:
        return type(e).__name__, str(e)
    return None


def _mutations(src, rng, n):
    """n copies of src, each with one token changed: a parenthesis dropped or
    doubled, a symbol dropped, or two symbols swapped."""
    tokens = [(m.start(), m.end(), m.group()) for m in re.finditer(r"[()]|[^ \t\r\n();]+", src)]
    parens = [t for t in tokens if t[2] in "()"]
    symbols = [t for t in tokens if t[2] not in "()"]
    out = []
    for _ in range(n):
        how = rng.choice(("drop paren", "double paren", "drop symbol", "swap symbols"))
        if how == "swap symbols":
            (s1, e1, t1), (s2, e2, t2) = sorted(rng.sample(symbols, 2))
            out.append(src[:s1] + t2 + src[e1:s2] + t1 + src[e2:])
            continue
        s, e, t = rng.choice(symbols if how == "drop symbol" else parens)
        out.append(src[:s] + (2 * t if how == "double paren" else "") + src[e:])
    return out


def test_a_workspace_error_is_placed_as_parse_nodes_places_it():
    """load_workspace raises, for a damaged WS, the error the forms of
    parse_nodes(src) raise when added to a fresh workspace."""
    rng = random.Random(35)
    placed = 0
    for src in _mutations(WS, rng, 400):
        want = _raised(lambda: sexpr._load_forms(parse_nodes(src), sexpr.Workspace()))
        assert _raised(lambda: load_workspace(src)) == want, src
        placed += want is not None and re.match(r"\d+:\d+: ", want[1]) is not None
    assert placed > 100


SECOND = """(pairs U ((mul x y) (inv x)))
(formula r (exists (y) (rel P (mul x y))))
(clause k identity ((mul x e) x))
(model N Z2 (rel P (0)))
"""


def test_a_second_file_error_is_placed_as_parse_nodes_places_it(tmp_path, capsys):
    """A damaged file loaded after WS: its error is the one its forms raise
    when added to WS's workspace as WS left it, and `uag parse` prints it
    after the file's path."""
    first = tmp_path / "first.sx"
    first.write_text(WS)
    second = tmp_path / "second.sx"
    rng = random.Random(36)
    failed = 0
    for src in _mutations(SECOND, rng, 120):
        want = _raised(lambda: sexpr._load_forms(parse_nodes(src), load_workspace(WS)))
        assert _raised(lambda: load_workspace(src, load_workspace(WS))) == want, src
        if want is not None and want[0] == "SexprError":
            failed += 1
            second.write_text(src)
            capsys.readouterr()
            assert run_cli("parse", "-f", str(first), "-f", str(second)) == (2, "")
            assert capsys.readouterr().err == f"error: {second}:{want[1]}\n"
    assert failed > 30


def test_a_failed_load_is_placed_from_the_workspace_as_it_was():
    """The forms a file added before its error are not seen by the read
    that places the error: (op e ...) is not read as coming after a term."""
    base = load_workspace("(sort g)\n(op mul (g g) g)")
    with pytest.raises(SexprError) as e:
        load_workspace("(op e () g)\n(pairs T ((mul x x) e))\n(bogus)", base)
    assert str(e.value) == "3:2: unknown form 'bogus'"


def _strings(obj):
    """Every str reachable from obj through containers and through the
    slots and instance dicts of the objects they hold."""
    seen, out, stack = set(), [], [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, str):
            out.append(o)
            continue
        if id(o) in seen or isinstance(o, (int, float, bytes, type(None))):
            continue
        seen.add(id(o))
        if isinstance(o, dict):
            stack.extend(o)
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        else:
            for cls in type(o).__mro__:
                slots = getattr(cls, "__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(o, name):
                        stack.append(getattr(o, name))
            stack.extend(getattr(o, "__dict__", {}).values())
    return out


def test_a_valid_load_makes_no_atoms(monkeypatch, capsys):
    """A valid workspace or --term is read without positions: no Atom is
    made, and every name in the workspace and its terms is a plain str. A
    malformed one makes the Atoms of exactly one parse_nodes read."""
    made = []

    class Counted(sexpr.Atom):
        __slots__ = ()

        def __init__(self, text, line, col):
            made.append((text, line, col))
            super().__init__(text, line, col)

    monkeypatch.setattr(sexpr, "Atom", Counted)
    ws = load_workspace(WS)
    t = parse_inline_term("(mul x (inv y))", ws.sig())
    parse_inline_pair("((mul x x) e)", ws.sig())
    parse_inline_subst("((x (mul y y)) (y e))", ws.sig())
    argv = ["eval", "--builtin", "group", "-a", "Z2", "-c", "C2", "--term", "(mul x (inv y))", "--point", "1,0"]
    assert run_cli(*argv)[0] == 0
    assert made == []
    names = _strings([vars(ws), t])
    assert {"g", "mul", "Z2", "C2", "x", "y", "T", "P", "M", "q", "comm", "boom"} <= set(names)
    assert {type(s) for s in names} == {str}

    for src in (WS + "(bogus x)\n", WS + "(pairs B ((mul x y) e)\n", WS.replace("(sort g)", "(sort g))")):
        made.clear()
        with pytest.raises(SexprError):
            load_workspace(src)
        got = list(made)
        made.clear()
        try:
            parse_nodes(src)
        except SexprError:
            pass
        assert got == made and got
    made.clear()
    assert run_cli(*argv[:-3], "(mul x", *argv[-2:]) == (2, "")
    assert capsys.readouterr().err == "error: 1:1: unclosed parenthesis\n"
    assert made == [("mul", 1, 2), ("x", 1, 6)]


def test_load_workspace_full():
    ws = load_workspace(WS)
    assert ws.sig().has_op("mul")
    assert ws.algebra("Z2").sizes == (2,)
    assert ws.context("C2").names == ("x", "y")
    assert len(ws.pairs("T")) == 1
    assert ws.clause("comm").kind == "identity"
    assert ws.clause("branch").kind == "pseudo"
    assert ws.clause("mixed").neg.pairs
    assert ws.clause("imp").cons is not None
    assert ws.clause("boom").cons is None
    assert ws.model("M").relations["P"] == frozenset({(1,)})


def test_nullary_symbol_resolution():
    ws = load_workspace(WS)
    t = parse_term(parse_nodes("(mul e q)")[0], ws.sig())
    assert t is app("mul", app("e"), var("q"))


def test_parse_term_errors():
    ws = load_workspace(WS)
    with pytest.raises(SexprError, match="unknown operation"):
        parse_term(parse_nodes("(frob x)")[0], ws.sig())
    with pytest.raises(SexprError, match="takes 2 arguments"):
        parse_term(parse_nodes("(mul x)")[0], ws.sig())
    with pytest.raises(SexprError, match="bare number"):
        parse_term(parse_nodes("3")[0], ws.sig())


def test_formula_round_trip():
    ws = load_workspace(WS)
    texts = [
        "(eq x y)",
        "(rel P (mul x y))",
        "(and (eq x y) (rel P x))",
        "(or)",
        "(not (eq x e))",
        "(exists (x y) (eq x y))",
        "(forall (y) (rel P y))",
    ]
    for text in texts:
        f = parse_formula(parse_nodes(text)[0], ws)
        printed = print_formula(f)
        again = parse_formula(parse_nodes(printed)[0], ws)
        assert again == f


def test_formula_needs_declared_relation():
    ws = load_workspace(WS)
    with pytest.raises(ValueError):
        parse_formula(parse_nodes("(rel Q x)")[0], ws)


def test_algebra_table_validation():
    with pytest.raises(SexprError, match="missing"):
        load_workspace("(sort g)(op e () g)(algebra A (table e (0)))")
    with pytest.raises(ValueError):
        load_workspace(
            "(sort g)(op mul (g g) g)(algebra A (carrier g 2) (table mul (0 0 0)))"
        )


def test_inline_helpers():
    ws = load_workspace(WS)
    p = parse_inline_pair("((mul x x) e)", ws.sig())
    assert render(p[0]) == "(mul x x)"
    p2 = parse_inline_pair("(mul x x) e", ws.sig())
    assert p2 == p
    s = parse_inline_subst("((x (mul y y)) (y e))", ws.sig())
    assert render(s("x")) == "(mul y y)"


def test_declarations_freeze_after_use():
    with pytest.raises(SexprError, match="declared before"):
        load_workspace("(sort g)(op e () g)(pairs T (e e))(sort h)")


def run_cli(*argv):
    from io import StringIO
    import contextlib

    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_cli_eval_json(tmp_path):
    for point in ("1,2", " 1, 2 "):  # spaces around an entry are allowed
        code, out = run_cli(
            "eval", "--builtin", "group", "-a", "Z4", "-c", "C2",
            "--term", "(inv (mul x y))", "--point", point, "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["point"] == [1, 2] and json.loads(out)["value"] == 1


def test_builtin_algebras_are_built_when_named(tmp_path, capsys):
    code, out = run_cli("eval", "--builtin", "group", "-a", "Z2", "-c", "C2", "--term", "(mul x y)", "--point", "1,1")
    assert code == 0 and "value: 0" in out
    code, out = run_cli("parse", "--builtin", "group", "--format", "json")
    assert json.loads(out)["algebras"] == ["S3", "V4", "Z2", "Z3", "Z4", "Z5", "Z6"]
    assert code == 0
    capsys.readouterr()
    assert run_cli("eval", "--builtin", "ring", "-a", "Z2", "-c", "C1", "--term", "x", "--point", "0")[0] == 2
    assert capsys.readouterr().err == "error: unknown algebra 'Z2' (known: R2, R3, R5)\n"
    # every stock name is the name of the algebra it builds
    for kind, (_, builders) in cli.STOCK.items():
        ws = cli.builtin_workspace(kind)
        assert [ws.algebra(name).name for name in builders] == list(builders)
    # a workspace file's algebra replaces the stock one of that name
    path = tmp_path / "z2.sx"
    path.write_text("(algebra Z2 (carrier g 2) (table mul (0 0 1) (0 1 1) (1 0 1) (1 1 1)) (table inv (0 0) (1 1)) (table e (0)))")
    code, out = run_cli("eval", "--builtin", "group", "-f", str(path), "-a", "Z2", "-c", "C2", "--term", "(mul x y)", "--point", "1,1")
    assert code == 0 and "value: 1" in out


def test_cli_closure_membership_exit_codes():
    code, _ = run_cli(
        "closure", "--builtin", "group", "-a", "Z4", "-c", "C1",
        "-p", "T", "--query", "(x (inv x))",
    )
    assert code == 2  # pairs T not defined without a file
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".sx", delete=False) as fh:
        fh.write("(pairs T ((mul x x) e))")
        path = fh.name
    try:
        code, _ = run_cli(
            "closure", "--builtin", "group", "-f", path, "-a", "Z4", "-c", "C1",
            "-p", "T", "--query", "(x (inv x))",
        )
        assert code == 0
        code, _ = run_cli(
            "closure", "--builtin", "group", "-f", path, "-a", "Z4", "-c", "C1",
            "-p", "T", "--query", "(x e)",
        )
        assert code == 1
    finally:
        os.unlink(path)


def test_cli_equiv_exit_and_payload():
    code, out = run_cli(
        "equiv", "--builtin", "group", "-a", "Z2", "-b", "Z4", "-c", "C1",
        "--format", "json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["verdict"]["verdict"] == "not-equivalent"
    assert data["verdict"]["pair"] == ["x", "(inv x)"]


def test_cli_json_deterministic():
    argv = [
        "equiv", "--builtin", "group", "-a", "Z2", "-b", "Z4", "-c", "C1",
        "--format", "json", "--seed", "5",
    ]
    _, out1 = run_cli(*argv)
    _, out2 = run_cli(*argv)
    assert out1 == out2


def test_cli_sampled_equiv_is_the_exact_test():
    """`--mode sampled` prints exact mode's bytes and exit code, except that an
    equivalent verdict reads as inconclusive, over every ordered pair of the
    stock groups in one and two variables."""
    groups = list(cli.STOCK["group"][1])
    verdicts = set()
    for a, b, n in itertools.product(groups, groups, (1, 2)):
        argv = ("equiv", "--builtin", "group", "-a", a, "-b", b, "-c", f"C{n}", "--format", "json")
        code, out = run_cli(*argv)
        sampled = run_cli(*argv, "--mode", "sampled", "--samples", "7")
        exact = json.loads(out)
        verdicts.add(exact["verdict"]["verdict"])
        if exact["verdict"]["verdict"] == "equivalent":
            exact["verdict"] = {"verdict": "inconclusive", "samples": 7, "notice": ""}
            assert code == 0 and sampled == (0, emit(exact, "json")), (a, b, n)
        else:
            assert sampled == (code, out), (a, b, n)
    assert verdicts == {"equivalent", "not-equivalent"}


def test_cli_sampled_equiv_answers_on_s3_over_three_variables():
    argv = ("equiv", "--builtin", "group", "-c", "C3", "--mode", "sampled", "--format", "json")
    code, out = run_cli(*argv, "-a", "S3", "-b", "Z6")
    assert code == 1 and json.loads(out)["verdict"]["verdict"] == "not-equivalent"
    code, out = run_cli(*argv, "-a", "S3", "-b", "S3")
    assert code == 0 and json.loads(out)["verdict"] == {"verdict": "inconclusive", "samples": 40, "notice": ""}


def test_cli_subprocess_deterministic_across_hash_seeds(tmp_path):
    # different PYTHONHASHSEED values must not leak into the output
    import os

    ws = tmp_path / "w.sx"
    ws.write_text("(pairs T ((mul x x) e))")
    argv = [
        "closure", "--builtin", "group", "-f", str(ws), "-a", "Z4", "-c", "C2",
        "-p", "T", "--format", "json",
    ]
    outs = []
    for hs in ("1", "7"):
        env = dict(os.environ, PYTHONHASHSEED=hs)
        proc = subprocess.run(
            [sys.executable, "-m", "uag.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_python_dash_m_uag_runs_the_cli(monkeypatch, capsys):
    """A one-shot ``python -m uag`` process exits and prints as an
    in-process ``main`` call does, on success, a usage error and an input
    error, and never with a traceback."""
    monkeypatch.setenv("COLUMNS", "80")
    eval_argv = ["eval", "--builtin", "group", "-a", "S3", "-c", "C2", "--term", "(mul x (inv y))", "--point", "1,4"]
    for argv, want in (
        (["parse", "--builtin", "group"], 0),
        ([*eval_argv, "--format", "json"], 0),
        (["eval", "--builtin", "group", "-a", "Z7", "-c", "C1", "--term", "x", "--point", "0"], 2),
        (["eval", "--bogus"], 2),
        (["experiment", "--name", "submodel-closure"], 2),
    ):
        proc = subprocess.run([sys.executable, "-m", "uag", *argv], capture_output=True, text=True)
        assert proc.returncode == want and (proc.stdout if want == 0 else proc.stderr), argv
        assert "Traceback" not in proc.stderr, argv
        capsys.readouterr()
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        assert (code, *capsys.readouterr()) == (proc.returncode, proc.stdout, proc.stderr), argv


_Z6 = ["--builtin", "group", "-a", "Z6"]
_DERIVE = ["derive", "--kind", "identity", "--seeds", "a"]
BAD_COUNTS_AND_POINTS = [
    (["check", "--trials", "-1"], "argument --trials: not a count"),
    ([*_DERIVE, "--budget", "-5"], "argument --budget: not a count"),
    ([*_DERIVE, "--iterations", "-1"], "argument --iterations: not a count"),
    ([*_DERIVE, "--depth", "-1"], "argument --depth: not a count"),
    ([*_DERIVE, "--width", "-3"], "argument --width: not a count"),
    (["equiv", *_Z6, "-b", "Z2", "-c", "C1", "--samples", "-1"], "argument --samples: not a count"),
    (["iso", *_Z6, "--ctx-a", "C1", "--pairs-a", "T", "--ctx-b", "C1", "--pairs-b", "T", "--bound", "-1"],
     "argument --bound: not a count"),
    (["eval", *_Z6, "-c", "C1", "--term", "x", "--point", "1 1"], "error: point values must be integers: '1 1'"),
    (["eval", *_Z6, "-c", "C2", "--term", "x", "--point", "1,,1"], "error: point values must be integers: '1,,1'"),
    (["eval", *_Z6, "-c", "C2", "--term", "x", "--point", ",1,1"], "error: point values must be integers: ',1,1'"),
    (["eval", *_Z6, "-c", "C2", "--term", "x", "--point", "1,1,"], "error: point values must be integers: '1,1,'"),
    (["nullsatz", "--builtin", "group", "--image", "Z2", "--assignment", "1,,0", "--target", "Z2", "-c", "C2"],
     "error: point values must be integers: '1,,0'"),
    # an entry is decimal digits with an optional leading "-": no "+", no "_"
    (["eval", *_Z6, "-c", "C1", "--term", "x", "--point", "1_1"], "error: point values must be integers: '1_1'"),
    (["eval", *_Z6, "-c", "C1", "--term", "x", "--point", "+1"], "error: point values must be integers: '+1'"),
    (["eval", *_Z6, "-c", "C2", "--term", "x", "--point", "1,-+1"], "error: point values must be integers: '1,-+1'"),
    (["point-closure", *_Z6, "-c", "C2", "--point", "0, +0"], "error: point values must be integers: '0, +0'"),
    (["point-closure", *_Z6, "-c", "C2", "--point", "0,1_0"], "error: point values must be integers: '0,1_0'"),
    (["nullsatz", "--builtin", "group", "--image", "Z2", "--assignment", "+1,0", "--target", "Z2", "-c", "C2"],
     "error: point values must be integers: '+1,0'"),
    (["nullsatz", "--builtin", "group", "--image", "Z2", "--assignment", "1,0_0", "--target", "Z2", "-c", "C2"],
     "error: point values must be integers: '1,0_0'"),
]


@pytest.mark.parametrize("argv, message", BAD_COUNTS_AND_POINTS, ids=[" ".join(a) for a, _ in BAD_COUNTS_AND_POINTS])
def test_negative_counts_and_malformed_points_are_usage_errors(argv, message, monkeypatch, capsys):
    """A negative count option, or a point with an empty or non-integer
    entry, exits 2 with one usage or error line and no traceback, from
    ``main`` and from ``python -m uag`` alike."""
    monkeypatch.setenv("COLUMNS", "80")
    proc = subprocess.run([sys.executable, "-m", "uag", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr
    if message.startswith("argument"):
        assert proc.stderr.startswith(f"usage: uag {argv[0]} ")
    else:
        assert proc.stderr == message + "\n"
    capsys.readouterr()
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    assert (code, *capsys.readouterr()) == (2, "", proc.stderr)


def test_point_entries_may_carry_a_minus_and_spaces(capsys):
    """Spaces around an entry are allowed, and a leading "-" reads as a
    negative value, which is then out of range."""
    code, out = run_cli("eval", *_Z6, "-c", "C2", "--term", "(mul x y)", "--point", " 2 ,3\t", "--format", "json")
    assert (code, json.loads(out)["point"], json.loads(out)["value"]) == (0, [2, 3], 5)
    capsys.readouterr()
    assert run_cli("point-closure", *_Z6, "-c", "C1", "--point", "-1") == (2, "")
    assert capsys.readouterr().err == "error: value -1 for x out of range for Z6\n"


def test_cli_parse_error_exit(tmp_path, capsys):
    code, _ = run_cli("variety", "--builtin", "group", "-a", "NOPE", "-c", "C1", "-p", "T")
    assert code == 2
    bad = tmp_path / "bad.sx"
    bad.write_text("(sort g)\n(op e () g")
    capsys.readouterr()
    code, _ = run_cli("parse", "-f", str(bad))
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}:2:1: unclosed parenthesis\n"


def test_cli_parses_a_pair_5000_levels_deep(tmp_path):
    """A term nested far past the recursion limit is read, keyed and
    summarized as a shallow one is."""
    depth = 5000
    deep, shallow = tmp_path / "deep.sx", tmp_path / "shallow.sx"
    text = "(mul " * depth + "x" + " y)" * depth
    deep.write_text(f"(pairs DEEP ({text} e))\n")
    shallow.write_text("(pairs DEEP ((mul x y) e))\n")
    runs = [run_cli("parse", "--builtin", "group", "-f", str(p), "--format", "json") for p in (deep, shallow)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and json.loads(runs[0][1])["pairs"] == ["DEEP"]
    [pair] = load_workspace(deep.read_text(), cli.builtin_workspace("group")).pairs("DEEP")
    assert [render(t) for t in pair] == ["e", text]


def test_cli_verbs_answer_on_a_pair_5000_levels_deep(tmp_path, capsys):
    """Every verb that reads a pair set answers on a pair nested far past the
    recursion limit, (inv^5000 x, x), which holds at all 4 points of Z4;
    nullsatz reads the workspace but no pair set. derive --kind pseudo still
    registers the pair in a congruence closure, whose walk recurses, and
    stops with one error line, not a traceback."""
    depth = 5000
    term = "(inv " * depth + "x" + ")" * depth
    path = tmp_path / "deep.sx"
    path.write_text(f"(pairs D ({term} x))\n")
    ws = ("--builtin", "group", "-f", str(path), "--format", "json")
    c1 = ("-a", "Z4", "-c", "C1")
    pair_sets = ("-a", "Z4", "--ctx-a", "C1", "--ctx-b", "C1", "--pairs-a", "D", "--pairs-b", "D")
    everywhere = [[0], [1], [2], [3]]
    quasi = {"kind": "quasi", "ante": [], "cons": ["x", term]}
    for argv, key, want in (
        (("variety", *ws, *c1, "-p", "D"), "points", everywhere),
        (("closure", *ws, *c1, "-p", "D"), "count", 4),
        (("closure", *ws, *c1, "-p", "D", "--query", "(x (inv (inv x)))"), "member", True),
        (("eval", *ws, *c1, "--term", term, "--point", "1"), "value", 1),
        (("verbal", *ws, *c1, "-p", "D"), "points", everywhere),
        (("morphism", *ws, *pair_sets, "--subst", "((x (mul x x)))"), "report", {
            "ok": True, "failing_point": None, "image_point": None}),
        (("iso", *ws, *pair_sets), "found", True),
        (("nullsatz", *ws, "--image", "Z4", "--assignment", "1", "--target", "Z2", "-c", "C1"), "report", {
            "agrees": True, "meet_agrees": True, "image_sizes": [4], "quotient_sizes": [2], "hom_count": 2,
            "separating": None}),
        (("derive", *ws, "--kind", "quasi", "--seed-pairs", "D"), "result", {
            "count": 1, "exhausted": False, "rounds": 1, "clauses": [quasi]}),
    ):
        code, out = run_cli(*argv)
        assert code == 0, argv[0]
        assert json.loads(out)[key] == want, argv[0]
    # pseudo clauses are closed by congruence closure, whose registration
    # recurses once per level; past the recursion limit it stops cleanly. A
    # pair 1500 deep is enough, and cheaper to key than one 5000 deep.
    path.write_text("(pairs D (" + "(inv " * 1500 + "x" + ")" * 1500 + " x))\n")
    capsys.readouterr()
    assert run_cli("derive", *ws, "--kind", "pseudo", "--seed-pairs", "D") == (2, "")
    assert capsys.readouterr().err == "error: term nested too deep for this verb (recursion limit)\n"


def test_cli_ill_sorted_term_exits_2(tmp_path, capsys):
    path = tmp_path / "two.sx"
    path.write_text(
        "(sort a) (sort b) (op f (b) a) (op c () a)\n"
        "(algebra G (carrier a 3) (carrier b 2) (table f (0 1) (1 2)) (table c (0)))\n"
        "(context C (x a) (y b)) (pairs T (x c)) (rel-sig (P b)) (model M G (rel P (1)))\n"
        "(formula q (eq (f x) x)) (formula r (eq (f y) y)) (formula s (rel P x))\n"
        "(clause i identity ((f y) y)) (clause k pseudo ((f y) y))\n"
        "(context D (x a)) (pairs E) (pairs B ((f y) y))\n"
    )
    ws = ("-f", str(path), "-a", "G", "-c", "C")
    for argv in (
        ("eval", *ws, "--term", "(f x)", "--point", "2,0"),
        ("closure", *ws, "-p", "T", "--query", "(y x)"),
        ("closure", *ws, "-p", "T", "--query", "((f x) x)"),
        ("query", *ws, "--clause", "i"),
        ("query", "-f", str(path), "-a", "G", "--clause", "i"),
        ("morphism", "-f", str(path), "-a", "G", "--ctx-a", "C", "--pairs-a", "E",
         "--ctx-b", "D", "--pairs-b", "E", "--subst", "((w y))"),
    ):
        assert run_cli(*argv)[0] == 2, argv
    capsys.readouterr()
    for argv in (
        *(("derive", "-f", str(path), "--kind", kind, "--seed-pairs", "B", "-c", "C")
          for kind in ("identity", "pseudo", "universal", "quasi")),
        ("derive", "-f", str(path), "--kind", "pseudo", "--seeds", "k", "-c", "C"),
    ):
        assert run_cli(*argv)[0] == 2, argv
        assert capsys.readouterr().err == "error: seed equation y = (f y): sides of sorts 'b' and 'a'\n", argv
    for formula in ("q", "r", "s"):
        code, _ = run_cli("fo-variety", "-f", str(path), "--model", "M", "-c", "C", "--formulas", formula)
        assert code == 2, formula


def test_cli_derive_names_the_seed_with_a_two_sorted_variable(tmp_path, capsys):
    path = tmp_path / "seeds.sx"
    path.write_text(
        "(sort a) (sort b) (op f (b) a) (op h (a) a)\n"
        "(pairs B ((f y) (h y))) (pairs Q ((f y) x)) (pairs R ((h y) x))\n"
    )
    capsys.readouterr()
    assert run_cli("derive", "-f", str(path), "--kind", "identity", "--seed-pairs", "B")[0] == 2
    assert capsys.readouterr().err == "error: seed equation (f y) = (h y): variable 'y' used at two sorts\n"
    # a conflict spanning two equations names neither
    assert run_cli("derive", "-f", str(path), "--kind", "identity", "--seed-pairs", "Q,R")[0] == 2
    assert capsys.readouterr().err == "error: variable 'y' used at two sorts\n"


# sort b has no variable in C; in A and B the constants differ, so the empty
# point set is closed and presented by the unit congruence
TWO_SORTED = """
(sort a) (sort b)
(op c0 () a) (op c1 () a) (op f (a) b) (op g (b) a)
(algebra A (carrier a 2) (carrier b 2)
  (table c0 (0)) (table c1 (1)) (table f (0 0) (1 1)) (table g (0 0) (1 1)))
(algebra B (carrier a 2) (carrier b 1)
  (table c0 (0)) (table c1 (1)) (table f (0 0) (1 0)) (table g (0 0)))
(context C (x a))
(pairs P (c0 c1))
"""


def test_cli_closure_presents_the_unit_congruence(tmp_path):
    path = tmp_path / "two.sx"
    path.write_text(TWO_SORTED)
    code, out = run_cli("closure", "-f", str(path), "-a", "A", "-c", "C", "-p", "P", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 0
    assert data["presentation"] == [["c0", "x"], ["c1", "x"], ["x", "(g (f x))"]]


def test_cli_exact_equiv_answers_with_a_variable_less_sort(tmp_path):
    path = tmp_path / "two.sx"
    path.write_text(TWO_SORTED)
    ws = load_workspace(TWO_SORTED)
    ctx = ws.context("C")
    for left, right, want in (("A", "A", 0), ("A", "B", 1), ("B", "A", 1)):
        code, out = run_cli(
            "equiv", "-f", str(path), "-a", left, "-b", right, "-c", "C", "--mode", "exact", "--format", "json"
        )
        assert code == want, (left, right)
        verdict = json.loads(out)["verdict"]
        if code == 1:
            eqs = [parse_inline_pair(f"{u} {v}", ws.sig()) for u, v in verdict["equations"]]
            pair = parse_inline_pair(" ".join(verdict["pair"]), ws.sig())
            holds, fails = ws.algebra(verdict["holds_in"]), ws.algebra(verdict["fails_in"])
            assert oracles.o_closure_member(holds, ctx, eqs, pair)
            assert not oracles.o_closure_member(fails, ctx, eqs, pair)


def test_cli_names_a_sort_with_no_term(tmp_path, capsys):
    """Sort b has no term over x alone, so no coordinate algebra or image
    table exists; every route that needs one says why and exits 2. G lies in
    SP(G) as a whole, so equiv of G with itself needs no point subalgebra;
    G does not lie in SP(H) for the one-element H, so either order reaches
    G's termless point subalgebras."""
    path = tmp_path / "termless.sx"
    path.write_text(
        "(sort a) (sort b) (op c () a) (op h (b) a)\n"
        "(algebra G (carrier a 2) (carrier b 2) (table c (0)) (table h (0 1) (1 0)))\n"
        "(algebra H (carrier a 1) (carrier b 1) (table c (0)) (table h (0 0)))\n"
        "(context C (x a)) (pairs T (x c))\n"
    )
    ws = ("-f", str(path), "-c", "C")
    for argv in (
        ("closure", *ws, "-a", "G", "-p", "T"),
        ("closure", *ws, "-a", "G", "-p", "T", "--query", "(x c)"),
        ("nullsatz", *ws, "--image", "G", "--target", "G", "--assignment", "1"),
        ("equiv", *ws, "-a", "G", "-b", "H", "--mode", "exact"),
        ("equiv", *ws, "-a", "H", "-b", "G", "--mode", "exact"),
    ):
        capsys.readouterr()
        assert run_cli(*argv) == (2, ""), argv
        assert capsys.readouterr().err == "error: sort 'b' has no term over the generators\n", argv
    code, out = run_cli("equiv", *ws, "-a", "G", "-b", "G", "--mode", "exact", "--format", "json")
    assert code == 0 and json.loads(out)["verdict"] == {"verdict": "equivalent", "mode": "exact", "notice": ""}
    assert capsys.readouterr().err == ""


STOCK_PAIRS = [(lib, a, b) for lib, (_, names) in cli.STOCK.items() for a in names for b in names]


@given(st.sampled_from(STOCK_PAIRS), st.integers(1, 2), st.integers(1, 2**12))
def test_cli_equiv_under_any_cap_answers_as_the_eager_route(pair, n, cap):
    """`uag equiv` exits 0 or 1 with the eager route's bytes wherever that
    route answers under the cap, and otherwise 0, 1, or 2 with one error
    line and no output; never a traceback."""
    lib, a, b = pair
    ws = cli.builtin_workspace(lib)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("equiv", "--builtin", lib, "-a", a, "-b", b, "-c", f"C{n}", "--cap", str(cap), "--format", "json")
    err = err.getvalue()
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code in (0, 1) and err == ""
    try:
        want = oracles.o_equiv_eager(ws.algebra(a), ws.algebra(b), ws.context(f"C{n}"), cap)
    except CapExceeded:
        return
    payload = {"verb": "equiv", "left": a, "right": b, "seed": 0, "verdict": want}
    assert (code, out) == (1 if isinstance(want, NotEquivalent) else 0, emit(payload, "json"))


def test_cli_closure_query_builds_one_coordinate_algebra(tmp_path, monkeypatch):
    built = []
    real = geometry.coordinate_algebra

    def counting(a, cap=None):
        built.append(len(a))
        return real(a, cap)

    monkeypatch.setattr(geometry, "coordinate_algebra", counting)
    path = tmp_path / "t.sx"
    path.write_text("(pairs T ((mul x x) e))")
    code, _ = run_cli(
        "closure", "--builtin", "group", "-f", str(path), "-a", "Z4", "-c", "C2", "-p", "T", "--query", "(x (inv x))"
    )
    assert code == 0
    assert built == [8]


def test_cli_over_cap_coordinate_algebras_exit_2_at_once(tmp_path, capsys):
    """Coordinate algebras spanning far more table cells than the default
    cap stop at the round that passes it: exit 2 with the one error line."""
    path = tmp_path / "t.sx"
    for text, argv, count in (
        ("(pairs T ((mul x x) e))", ("group", "-a", "S3", "-c", "C3", "-p", "T"), 44669173),
        ("(pairs E)", ("ring", "-a", "R5", "-c", "C2", "-p", "E", "--query", "(x y)"), 25920003),
    ):
        path.write_text(text)
        capsys.readouterr()
        assert run_cli("closure", "-f", str(path), "--builtin", *argv) == (2, "")
        assert capsys.readouterr().err == f"error: coordinate algebra tables: {count} exceeds cap 1048576\n"


def test_cli_check_single_suite():
    code, out = run_cli("check", "--suite", "halmos", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


SIG_OP = "(sort g) (op e () g) "


@pytest.mark.parametrize(
    "text",
    [
        "(sort)",
        "(pairs)",
        "(algebra)",
        "(context)",
        "(formula f)",
        "(clause c)",
        "(model M)",
        SIG_OP + "(algebra A (table))",
        SIG_OP + "(algebra A (carrier g 1) (table e (0))) (rel-sig (P g)) (model M A (rel))",
    ],
)
def test_cli_short_workspace_form_exits_2(tmp_path, capsys, text):
    path = tmp_path / "short.sx"
    path.write_text(text)
    capsys.readouterr()
    assert run_cli("parse", "-f", str(path))[0] == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:1:") and err.count("\n") == 1, err


REPEAT_HEAD = "(sort g)(op mul (g g) g)(context C2 (x g) (y g))\n"


@pytest.mark.parametrize(
    "algebra, want",
    [
        (
            "(algebra A (carrier g 2) (table mul (0 0 0) (0 1 1) (0 1 0) (1 0 1) (1 1 0)))",
            "2:54: repeated table row for 'mul' at (0, 1)",
        ),
        (
            "(algebra A (carrier g 2) (table mul (0 0 0) (0 1 1) (1 0 1) (1 1 0)) (table mul (0 0 0) (0 1 1) (1 0 1) (1 1 0)))",
            "2:71: repeated (table mul ...)",
        ),
        (
            "(algebra A (carrier g 1) (carrier g 2) (table mul (0 0 0) (0 1 1) (1 0 1) (1 1 0)))",
            "2:27: repeated (carrier g ...)",
        ),
    ],
)
def test_cli_repeated_table_rows_and_forms_exit_2(tmp_path, capsys, algebra, want):
    """A table row, a table form or a carrier form given twice is an error at
    the repeat, even where both give the same values."""
    path = tmp_path / "repeat.sx"
    path.write_text(REPEAT_HEAD + algebra)
    capsys.readouterr()
    argv = ["eval", "-f", str(path), "-a", "A", "-c", "C2", "--term", "(mul x y)", "--point", "0,1"]
    assert run_cli(*argv)[0] == 2
    assert capsys.readouterr().err == f"error: {path}:{want}\n"


@pytest.mark.parametrize(
    "algebra, want",
    [
        ("(algebra A (carrier g 2) (table mul (0 0 0) (0 1 1) (1 0 1) (1 1 2)))", "algebra 'A': table for 'mul' at (1, 1): result out of range"),
        ("(algebra A (carrier g 2) (table mul (0 0 0) (0 1 1) (1 0 1)))", "algebra 'A': table for 'mul' has 3 rows, expected 4"),
        ("(algebra A (carrier g 2) (table mul (0 0 0) (0 1 1) (1 0 1) (0 2 0)))", "algebra 'A': table for 'mul' missing entry (1, 1)"),
        ("(algebra A (carrier g 2))", "algebra 'A': missing table for op 'mul'"),
        ("(algebra A (carrier g 2) (table mul (0 0 0) (0 1 1) (1 0 1) (1 1 0) (2 0 0)))", "algebra 'A': table for 'mul' has 5 rows, expected 4"),
        ("(algebra A (carrier g 0) (table mul))", "algebra 'A': carriers must be nonempty"),
        ("(algebra A (table mul (0 0 0)))", "algebra 'A' missing (carrier g ...)"),
    ],
)
def test_cli_table_faults_name_the_file_and_position(tmp_path, capsys, algebra, want):
    """A fault the algebra's own check finds (a result out of range, a
    missing or a surplus row, a missing table, an empty carrier), and a
    missing carrier, is an error at the (algebra ...) form, named by the
    algebra."""
    path = tmp_path / "ws.sx"
    path.write_text(REPEAT_HEAD + "\n" + algebra)
    capsys.readouterr()
    assert run_cli("parse", "-f", str(path))[0] == 2
    assert capsys.readouterr().err == f"error: {path}:3:2: {want}\n"


TWO_VARIETIES = ["--ctx-a", "C1", "--pairs-a", "T", "--ctx-b", "C1", "--pairs-b", "T"]

# a valid argv for every verb, without the verb; no verb runs in the tests below
VALID_ARGS = {
    "parse": ["--builtin", "group"],
    "eval": ["--builtin", "group", "-a", "Z4", "-c", "C2", "--term", "(mul x y)", "--point", "1,2"],
    "variety": ["-a", "Z4", "-c", "C2", "-p", "T", "--cap", "9"],
    "closure": ["-a", "Z4", "-c", "C2", "-p", "T", "--query", "(x e)"],
    "nullsatz": ["--image", "Z2", "--assignment", "1", "--target", "Z4", "-c", "C1"],
    "point-closure": ["-a", "Z4", "-c", "C1", "--point", "1", "-f", "a.sx", "-f", "b.sx"],
    "verbal": ["-a", "Z4", "-c", "C2", "-p", "T", "--ictx", "C1"],
    "morphism": ["-a", "Z4", *TWO_VARIETIES, "--subst", "((x x))"],
    "iso": ["-a", "Z4", *TWO_VARIETIES, "--bound", "8"],
    "equiv": ["-a", "Z2", "-b", "Z4", "-c", "C1", "--mode", "sampled", "--samples", "5"],
    "derive": ["--kind", "pseudo", "--seeds", "a,b", "--width", "1", "--quackenbush", "--depth", "2"],
    "query": ["-a", "Z4", "--clause", "k", "-c", "C1", "--format", "json"],
    "fo-variety": ["--model", "M", "-c", "C2", "--formulas", "q", "--closure-query", "q"],
    "check": ["--suite", "halmos", "--trials", "3", "--seed", "4"],
}

# argv that cli._read_argv leaves to argparse: valid ones argparse reads
# (an abbreviation, --opt=value, a glued short option, a negative or empty
# value, a repeated option, a lone --) and one it rejects
DECLINED = [
    ["parse", "--form", "json"],
    ["parse", "--format=json"],
    ["eval", *VALID_ARGS["eval"][:2], "-aZ4", *VALID_ARGS["eval"][4:]],
    ["variety", *VALID_ARGS["variety"][:-1], "-5"],
    ["variety", "-a", "Z2", *VALID_ARGS["variety"]],
    ["parse", "--"],
    ["eval", *VALID_ARGS["eval"][:-1], ""],
    ["derive", "--kind", "pseudo", "--seeds", "a", "--quackenbush", "x"],
]

ARGV_CORPUS = [[], ["-h"], ["bogus"], ["--format", "json", "parse"], *DECLINED] + [
    argv
    for verb, rest in VALID_ARGS.items()
    for argv in (
        [verb, *rest],
        [verb, "-h"],
        [verb],
        [verb, *rest, "--format", "xml"],
        [verb, *rest, "--trials", "many"],
        [verb, *rest, "--bogus"],
    )
]


def _parsed(parse, argv, capsys):
    """(exit code, stdout, stderr, namespace) of one parse."""
    capsys.readouterr()
    try:
        ns = vars(parse(argv))
        code = 0
    except SystemExit as e:
        ns, code = None, e.code
    out, err = capsys.readouterr()
    return code, out, err, ns


def test_one_verb_parser_parses_as_the_full_parser(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    seen = []
    for name in [n for n in vars(cli) if n.startswith("cmd_")]:
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)

    def through_main(argv):
        seen.clear()
        assert main(list(argv)) == 0
        return seen[0]

    codes = set()
    for argv in ARGV_CORPUS:
        got = _parsed(through_main, argv, capsys)
        assert got == _parsed(cli._parser(cli._formatter()).parse_args, argv, capsys), argv
        codes.add(got[0])
    assert codes == {0, 2}


def test_seed_and_depth_belong_to_the_verbs_that_read_them(capsys):
    """--seed is an option of equiv and check, --depth of derive;
    any other verb rejects them as a usage error."""
    assert len(cli.COMMON) == 4
    for verb, flag in (("eval", "--depth"), ("variety", "--seed"), ("query", "--seed")):
        with pytest.raises(SystemExit) as e:
            main([verb, *VALID_ARGS[verb], flag, "2"])
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_the_reader_takes_valid_argv_and_declines_the_rest():
    for verb, rest in VALID_ARGS.items():
        assert cli._read_argv([verb, *rest]) is not None, verb
    for argv in DECLINED:
        assert cli._read_argv(argv) is None, argv


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_an_argv_the_reader_takes_reads_as_with_argparse(data):
    """A verb's required options and a few more of its options, in any
    order, each with a value drawn from its choices and a small pool; where
    the reader takes the argv, the full parser gives the same namespace."""
    verb = data.draw(st.sampled_from(sorted(cli.VERBS)))
    specs = cli.COMMON + cli.VERBS[verb][1]
    required = [spec for spec in specs if spec[1].get("required")]
    more = data.draw(st.lists(st.sampled_from(specs), max_size=3))
    argv = [verb]
    for flags, kwargs in data.draw(st.permutations(required + more)):
        argv.append(data.draw(st.sampled_from(flags)))
        if kwargs.get("action") != "store_true":
            argv.append(data.draw(st.sampled_from([*kwargs.get("choices", ()), "3", " 7", "Z4", "x", "-5", ""])))
    got = cli._read_argv(argv)
    if got is not None:
        with contextlib.redirect_stderr(io.StringIO()):
            assert got == cli._parser(cli._formatter()).parse_args(argv), argv


def test_a_call_registers_only_its_verb(monkeypatch, capsys):
    registered, tops, built = [], [], []
    add_arguments, add_subparsers = cli._add_arguments, argparse.ArgumentParser.add_subparsers
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(cli, "_add_arguments", lambda p, verb: registered.append(verb) or add_arguments(p, verb))
    monkeypatch.setattr(
        argparse.ArgumentParser, "add_subparsers", lambda self, **kw: tops.append(self.prog) or add_subparsers(self, **kw)
    )
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, **kw: built.append(kw) or init(self, **kw))
    # a valid call builds no parser at all
    assert run_cli("parse", "--builtin", "group")[0] == 0
    assert registered == tops == built == []
    # argv the reader declines builds the verb's parser alone
    assert run_cli("parse", "--builtin=group")[0] == 0
    assert registered == ["parse"] and tops == [] and len(built) == 1
    for argv, verbs in ((["parse", "--bogus"], ["parse", *cli.VERBS]), (["bogus"], list(cli.VERBS))):
        registered.clear()
        tops.clear()
        with pytest.raises(SystemExit):
            main(argv)
        # the full parser reports what the verb's parser left over
        assert registered == verbs and tops == ["uag"], argv
    assert len(registered) == 14


def test_a_call_asks_the_terminal_size_once(monkeypatch, capsys):
    """At most once: a valid call never asks, help and errors ask once."""
    asked = []
    real = shutil.get_terminal_size

    def counting(*args, **kwargs):
        asked.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    for argv, asks in (
        (["eval", *VALID_ARGS["eval"]], 0),
        (["eval", "-h"], 1),
        (["eval", "--bogus"], 1),
        (["bogus"], 1),
        (["-h"], 1),
    ):
        asked.clear()
        try:
            main(argv)
        except SystemExit:
            pass
        assert len(asked) == asks, argv
    capsys.readouterr()


def _reference_parser():
    """The full parser built as argparse does by default: each formatter
    asks the terminal for its width, and the subparsers derive their prog."""
    top = argparse.ArgumentParser(prog="uag", description=cli.__doc__)
    sub = top.add_subparsers(dest="verb", required=True)
    for name, (help_text, own) in cli.VERBS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in cli.COMMON + own:
            p.add_argument(*flags, **kwargs)
    return top


@pytest.mark.parametrize("columns", ["60", "150"])
def test_help_and_errors_read_as_with_argparse_defaults(monkeypatch, capsys, columns):
    monkeypatch.setenv("COLUMNS", columns)
    for argv in (["-h"], ["eval", "-h"], ["derive", "-h"], ["eval", "--bogus"], ["bogus"]):
        got = _parsed(main, argv, capsys)
        want = _parsed(_reference_parser().parse_args, argv, capsys)
        assert got[:3] == want[:3] and got[0] in (0, 2) and got[1] + got[2], argv


# one malformed workspace per SexprError raise site in uag.sexpr, and the
# error line `uag parse -f` prints for it after the path; every character
# but the newline, a tab too, takes one column
READER_ERRORS = {
    "stray-close": ("(sort g))", "1:9: unexpected ')'"),
    "unclosed": ("(sort g)\n(op e () g", "2:1: unclosed parenthesis"),
    "top-level-atom": ("x", "1:1: expected a form starting with a symbol"),
    "top-level-empty": ("()", "1:1: expected a form starting with a symbol"),
    "list-head": ("(sort g)\n  ((x) y)", "2:5: expected a form starting with a symbol"),
    "list-for-atom": ("(sort (g))", "1:8: expected a sort name"),
    "short-form": ("(sort)", "1:2: expected a sort name"),
    "sort-trailing-item": ("(sort g h)", "1:9: unexpected item"),
    "formula-trailing-item": ("(sort g)\n(op e () g)\n(formula f (eq e e) (eq e e e))", "3:22: unexpected item"),
    "empty-list-item": ("(sort g ())", "1:9: unexpected item"),
    "tab-and-comment": ("(sort g) ; (\n\t(sort g h) ; )", "2:10: unexpected item"),
    "not-an-integer": ("(sort g) (op e () g) (algebra A (carrier g two))", "1:44: expected an integer carrier size, got 'two'"),
    "no-sort": ("(pairs T (x x))", "no (sort ...) declared before it was needed"),
    "unknown-name": (
        "(sort g) (op e () g) (algebra A (carrier g 1) (table e (0))) (rel-sig (P g)) (model M B)",
        "unknown algebra 'B' (known: A)",
    ),
    "bare-number": ("(sort g) (op e () g) (pairs T (3 e))", "1:32: a bare number is not a term"),
    "bare-op": ("(sort g) (op f (g) g) (pairs T (f x))", "1:33: operation 'f' takes 1 arguments"),
    "empty-term": ("(sort g)\n(op e () g)\n(pairs T\n  (() e))", "4:4: empty term"),
    "unknown-op": ("(sort g) (pairs T ((h x) x))", "1:21: unknown operation 'h'"),
    "op-arity": ("(sort g) (op f (g) g) (pairs T ((f x x) x))", "1:34: operation 'f' takes 1 arguments, got 2"),
    "not-a-pair": ("(sort g) (pairs T (x))", "1:20: expected a pair (term term)"),
    "bare-formula": ("(sort g) (formula q maybe)", "1:21: bare formula atom 'maybe'"),
    "eq-arity": ("(sort g) (formula q (eq x))", "1:22: (eq term term)"),
    "rel-arity": ("(sort g) (formula q (rel))", "1:22: (rel name term...)"),
    "not-arity": ("(sort g) (formula q (not))", "1:22: (not formula)"),
    "exists-vars": ("(sort g) (formula q (exists x (eq x x)))", "1:22: (exists (vars) formula)"),
    "formula-head": ("(sort g) (formula q (iff x x))", "1:22: unknown formula head 'iff'"),
    "carrier": ("(sort g) (algebra A (carrier g))", "1:22: (carrier sort size)"),
    "table-op": ("(sort g) (algebra A (carrier g 1) (table f (0)))", "1:36: unknown operation 'f'"),
    "table-row": ("(sort g) (op e () g) (algebra A (carrier g 1) (table e (0 0)))", "1:57: table row for 'e' needs 1 integers"),
    "algebra-form": ("(sort g) (algebra A (carrier g 1) (size 1))", "1:36: unknown algebra form 'size'"),
    "no-carrier": ("(sort g) (algebra A)", "1:11: algebra 'A' missing (carrier g ...)"),
    "bare-context": ("(sort a) (sort b) (context C x)", "1:30: bare context variables need a single-sorted signature"),
    "context-var": ("(sort g) (context C (x))", "1:22: (var sort)"),
    "model-form": (
        "(sort g) (op e () g) (algebra A (carrier g 1) (table e (0))) (model M A (fact P))",
        "1:74: model forms are (rel name rows...)",
    ),
    "relation-row": (
        "(sort g) (op e () g) (algebra A (carrier g 1) (table e (0))) (rel-sig (P g)) (model M A (rel P 0))",
        "1:96: a relation row is a list of integers",
    ),
    "identity-body": ("(sort g) (clause c identity)", "1:11: (clause name identity (t1 t2))"),
    "universal-form": ("(sort g) (clause c universal (or (x x)))", "1:31: universal clause forms are (pos ...) and (neg ...)"),
    "cons-form": ("(sort g) (clause c quasi (cons x))", "1:27: (cons t1 t2) or (cons false)"),
    "quasi-form": ("(sort g) (clause c quasi (if (x x)))", "1:27: quasi clause forms are (ante ...) and (cons ...)"),
    "quasi-cons": ("(sort g) (clause c quasi (ante (x x)))", "1:11: quasi clause needs a (cons ...) form"),
    "clause-kind": ("(sort g) (clause c horn (x x))", "1:11: unknown clause kind 'horn'"),
    "late-sort": ("(sort g) (op e () g) (pairs T (e e)) (sort h)", "sorts must be declared before algebras or terms"),
    "late-op": ("(sort g) (op e () g) (pairs T (e e)) (op f () g)", "operations must be declared before algebras or terms"),
    "op-form": ("(sort g) (op e g)", "1:11: (op name (argsorts...) result)"),
    "rel-sig-form": ("(sort g) (rel-sig P)", "1:19: (rel-sig (name sorts...) ...)"),
    "late-relation": (
        "(sort g) (op e () g) (algebra A (carrier g 1) (table e (0))) (rel-sig (P g)) (model M A) (rel-sig (Q g))",
        "relations must be declared before models or formulas",
    ),
    "unknown-form": ("(define x)", "1:2: unknown form 'define'"),
}


@pytest.mark.parametrize("text, want", list(READER_ERRORS.values()), ids=list(READER_ERRORS))
def test_reader_error_line(tmp_path, capsys, text, want):
    path = tmp_path / "w.sx"
    path.write_text(text)
    capsys.readouterr()
    assert run_cli("parse", "-f", str(path)) == (2, "")
    assert capsys.readouterr().err == f"error: {path}:{want}\n"


def test_tokens_are_the_old_regex_tokens():
    """sexpr._tokens gives what ``[()]|[^ \\t\\r\\n();]+`` finds in the text
    without its comments: \\x0b, \\x0c and \\xa0 stay inside a token."""
    texts = [text for text, _ in READER_ERRORS.values()] + [
        "(sort g)\x0b(op\x0ce () g)\xa0x",
        "\t(a\tb)\r\n(c\rd) ; (e\r\n\x0c ;;\n\xa0( f\x0b)\x0b",
        "",
        " \t\r\n",
    ]
    for text in texts:
        want = re.findall(r"[()]|[^ \t\r\n();]+", re.sub(r";[^\n]*", "", text))
        assert list(sexpr._tokens(text)) == want, text


# the inline readers' raise sites, reached through the verbs whose arguments
# they read; these errors carry no path
@pytest.mark.parametrize(
    "argv, want",
    [
        (["eval", "-a", "Z2", "-c", "C1", "--term", "x x", "--point", "0"], "expected exactly one term"),
        (["eval", "-a", "Z2", "-c", "C1", "--term", "(mul x", "--point", "0"], "1:1: unclosed parenthesis"),
        (["closure", "-a", "Z2", "-c", "C1", "-p", "T", "--query", "x x x"], "expected a pair of terms"),
        (
            ["morphism", "-a", "Z2", "--ctx-a", "C1", "--pairs-a", "T", "--ctx-b", "C1", "--pairs-b", "T", "--subst", "(x)"],
            "1:2: substitution entries are (var term)",
        ),
    ],
)
def test_inline_reader_error_line(tmp_path, capsys, argv, want):
    path = tmp_path / "t.sx"
    path.write_text("(pairs T (x x))")
    capsys.readouterr()
    assert run_cli(*argv, "--builtin", "group", "-f", str(path)) == (2, "")
    assert capsys.readouterr().err == f"error: {want}\n"


# pieces of WS: parentheses, symbols and the whitespace between them
WS_PIECES = re.findall(r"[()]|[^\s()]+|\s+", WS)


@st.composite
def mutated_ws(draw, inserts=("(", ")", ";", "\n")):
    """WS with one to three pieces deleted, duplicated, swapped, or with a
    piece of inserts inserted: by default a paren, a comment start or a
    newline."""
    pieces = list(WS_PIECES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(pieces) - 1))
        how = draw(st.sampled_from(["delete", "duplicate", "swap", "insert"]))
        if how == "delete":
            del pieces[i]
        elif how == "duplicate":
            pieces.insert(i, pieces[i])
        elif how == "swap":
            j = draw(st.integers(0, len(pieces) - 1))
            pieces[i], pieces[j] = pieces[j], pieces[i]
        else:
            pieces.insert(i, draw(st.sampled_from(inserts)))
    return "".join(pieces)


@settings(max_examples=200, deadline=None)
@given(mutated_ws())
def test_a_mutated_workspace_parses_or_exits_2(tmp_path_factory, text):
    """`uag parse -f` on a damaged workspace exits 0, or 2 with exactly one
    error line; any other exception would escape main as a traceback."""
    path = tmp_path_factory.getbasetemp() / "mutated.sx"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli("parse", "-f", str(path))
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err


# every verb that reads a workspace, on WS's names; derive with small bounds
WS_VERBS = [
    ["parse"],
    ["eval", "-a", "Z2", "-c", "C2", "--term", "(mul x (inv y))", "--point", "1,0"],
    ["variety", "-a", "Z2", "-c", "C2", "-p", "T"],
    ["closure", "-a", "Z2", "-c", "C2", "-p", "T", "--query", "(x (inv x))"],
    ["nullsatz", "--image", "Z2", "--assignment", "1,0", "--target", "Z2", "-c", "C2"],
    ["point-closure", "-a", "Z2", "-c", "C2", "--point", "1,0"],
    ["verbal", "-a", "Z2", "-c", "C2", "-p", "T"],
    ["morphism", "-a", "Z2", "--ctx-a", "C2", "--pairs-a", "T", "--ctx-b", "C2", "--pairs-b", "T", "--subst", "((x y) (y x))"],
    ["iso", "-a", "Z2", "--ctx-a", "C2", "--pairs-a", "T", "--ctx-b", "C2", "--pairs-b", "T", "--bound", "8"],
    ["equiv", "-a", "Z2", "-b", "Z2", "-c", "C2"],
    ["derive", "--kind", "pseudo", "--seeds", "branch", "-c", "C2", "--iterations", "2", "--width", "1", "--depth", "2", "--budget", "200"],
    ["derive", "--kind", "quasi", "--seeds", "imp", "-c", "C2", "--iterations", "2", "--width", "1", "--depth", "2", "--budget", "200"],
    ["query", "-a", "Z2", "--clause", "comm", "-c", "C2"],
    ["fo-variety", "--model", "M", "-c", "C2", "--formulas", "q"],
]


@settings(max_examples=120, deadline=None)
@given(mutated_ws(inserts=("(", ")", ";", "\n", "2", "-1", "7")), st.sampled_from((2, 5, 16, 256)))
def test_every_workspace_verb_on_a_mutated_workspace_exits_0_1_or_2(tmp_path_factory, text, cap):
    """Each verb that reads a workspace, run on a damaged WS, exits 0 or 1,
    or 2 with exactly one error line; nothing escapes main. Inserted table
    entries reach the algebra's own checks, and the smaller caps reach the
    point and coordinate algebra caps (see the next test)."""
    path = tmp_path_factory.getbasetemp() / "mutated-verbs.sx"
    path.write_text(text)
    for argv in WS_VERBS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run_cli(*argv, "-f", str(path), "--cap", str(cap))
        err = err.getvalue()
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert "error:" not in err, (argv, err)


# what each WS_VERBS call prints at a cap a verb of WS reaches: at cap 2
# every verb that enumerates C2's 4 points, at cap 5 the verbs that build
# a coordinate algebra over the 2 points of V(T) or of a kernel
WS_CAP_ERRORS = {
    2: (
        {"variety", "closure", "nullsatz", "point-closure", "verbal", "morphism", "iso", "equiv", "query", "fo-variety"},
        "error: point enumeration: 4 exceeds cap 2\n",
    ),
    5: ({"closure", "nullsatz", "iso"}, "error: coordinate algebra tables: 6 exceeds cap 5\n"),
}


@pytest.mark.parametrize("cap", sorted(WS_CAP_ERRORS))
def test_workspace_verbs_exit_2_at_the_caps_they_reach(tmp_path, cap):
    """On WS itself, the verbs a cap stops exit 2 with its one error line,
    and the others answer; a CapExceeded that escaped main would fail here."""
    path = tmp_path / "ws.sx"
    path.write_text(WS)
    verbs, line = WS_CAP_ERRORS[cap]
    for argv in WS_VERBS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run_cli(*argv, "-f", str(path), "--cap", str(cap))
        assert (code, err.getvalue()) == ((2, line) if argv[0] in verbs else (0, "")), argv


@pytest.mark.parametrize("cap", (2, 5, 16, 256))
def test_check_under_small_caps_exits_0_1_or_2(cap):
    """`uag check`, which reads no workspace, run on each suite at one trial
    and on the default suite: it exits 0 or 1, or 2 with exactly one error
    line; a CapExceeded that escaped main would fail here."""
    for argv in [["--suite", suite, "--trials", "1"] for suite in sorted(cli._BATTERIES)] + [[]]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run_cli("check", *argv, "--cap", str(cap))
        err = err.getvalue()
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert "error:" not in err, (argv, err)


def test_argv_the_verb_parser_leaves_goes_to_the_full_parser(capsys):
    """An argv that does not start with a verb, or that leaves arguments
    over, is parsed by the full parser, which prints its help or a usage
    error."""
    for argv, code, message in (
        ([], 2, "the following arguments are required: verb"),
        (["-h"], 0, "usage: uag"),
        (["bogus"], 2, "invalid choice: 'bogus'"),
        (["experiment", "--name", "submodel-closure"], 2, "invalid choice: 'experiment'"),
        (["eval", *VALID_ARGS["eval"], "--bogus"], 2, "unrecognized arguments: --bogus"),
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        out, err = capsys.readouterr()
        assert e.value.code == code and message in (out if code == 0 else err), argv
