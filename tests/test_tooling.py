import argparse
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Optional

import uag.cli as cli
from uag import algebras

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "uag"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node in the module reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_unused_imports_detector():
    src = "import os\nimport a.b\nfrom x import y as z, w\nfrom __future__ import annotations\nos.sep\nw()\n"
    assert unused_imports(src) == ["a (line 2)", "z (line 3)"]


def test_no_unused_imports_in_the_package():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def imports_of(source: str, module: str) -> list[int]:
    """The line of each import statement that loads the named module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_imports_of_detector():
    src = "import os, dataclasses\nfrom dataclasses import field\nfrom .dataclasses import x\nimport dataclassesx\n"
    assert imports_of(src, "dataclasses") == [1, 2]


def test_a_fresh_cli_process_loads_no_dataclasses():
    """The value classes are slotted terms.Value classes, so no module
    imports dataclasses, and a fresh `import uag.cli` loads neither it nor
    the inspect module it pulls in."""
    found = {p.name: imports_of(p.read_text(encoding="utf-8"), "dataclasses") for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    probe = "import sys, uag.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def classes_with_own_init(base: type, package: str) -> list[str]:
    """The subclasses of base, at any depth and defined in package, that
    write their own __init__, as module.name."""
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.split(".")[0] == package and "__init__" in cls.__dict__:
            found.append(f"{cls.__module__}.{cls.__name__}")
    return sorted(found)


def test_classes_with_own_init_detector():
    class Base:
        pass

    class Plain(Base):
        pass

    class Own(Plain):
        def __init__(self):
            pass

    assert classes_with_own_init(Base, __name__.split(".")[0]) == [f"{__name__}.Own"]
    assert classes_with_own_init(Base, "uag") == []


def test_only_op_and_clause_write_their_own_init():
    """Every other value class is built by terms.Value's one constructor,
    from its slot fields and _defaults."""
    for p in sorted(SRC.glob("*.py")):
        if p.stem not in ("__init__", "__main__"):
            importlib.import_module(f"uag.{p.stem}")
    from uag.terms import Value

    assert classes_with_own_init(Value, "uag") == ["uag.rules.Clause", "uag.terms.Op"]


def tables_reads(source: str) -> list[int]:
    """The line of each read of an attribute named tables, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "tables" and isinstance(node.ctx, ast.Load)
    )


def test_tables_reads_detector():
    src = "def f(g, tables):\n    g.tables = tables\n    return g.tables['mul'], tables\nx = h().tables\n"
    assert tables_reads(src) == [3, 4]


def test_only_algebras_reads_the_tables_view():
    """An algebra stores its tables once, as nested rows; the tuple-keyed
    tables view is for readers outside the package."""
    found = {p.name: tables_reads(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name != "algebras.py"} == {}


# the check batteries and the derive steps are called through a table with
# one shared signature, so some of them leave a parameter unread
SHARED_SIGNATURE = ("_battery_", "_step_")


def unread_parameters(source: str) -> list[str]:
    """Parameters of each function that its body never reads, as name.param.

    self and _-prefixed names are exempt, and so are the functions named
    with a SHARED_SIGNATURE prefix.
    """
    out = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not child.name.startswith(SHARED_SIGNATURE):
                    a = child.args
                    params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                    read = {
                        n.id
                        for stmt in child.body
                        for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    }
                    out.extend(
                        f"{name}({p.arg})"
                        for p in params
                        if p.arg != "self" and not p.arg.startswith("_") and p.arg not in read
                    )
                visit(child, f"{name}.")

    visit(ast.parse(source), "")
    return out


def test_unread_parameters_detector():
    src = (
        "def f(a, b, *, c, _d):\n    return a + (lambda: c)()\n"
        "class K:\n    def m(self, x):\n        def inner(y):\n            return 1\n        return inner\n"
        "def _step_x(a):\n    pass\n"
    )
    assert unread_parameters(src) == ["f(b)", "K.m(x)", "K.m.inner(y)"]


def test_every_parameter_is_read():
    found = {p.name: unread_parameters(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert {name: params for name, params in found.items() if params} == {}


def definitions_without_readers(
    sources: dict[str, str], checked: Optional[set[str]] = None, exempt: tuple[str, ...] = ()
) -> list[str]:
    """Module-level functions and classes of the checked modules (every
    module if None), as module.name, that no statement of any of the
    sources but their own definition refers to: by name, as an attribute,
    or in an import. A reference from a listed definition does not count,
    so the check runs until the list stops growing: a chain of definitions
    that only read each other is listed whole. Names with an exempt prefix
    are not listed."""
    defined, statements = [], []  # statements: (the definition it is, if listed; names it reads)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            key = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if (checked is None or module in checked) and not own.startswith(exempt):
                    key = (module, own)
                    defined.append(key)
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            statements.append((key, names - {own}))
    unread: set = set()
    while True:
        read = set().union(*(names for key, names in statements if key not in unread))
        now = {key for key in defined if key[1] not in read}
        if now == unread:
            return [f"{module}.{name}" for module, name in defined if (module, name) in unread]
        unread = now


def test_definitions_without_readers_detector():
    sources = {
        "a": "def _used():\n    pass\ndef _self_only():\n    return _self_only()\nclass _K:\n    pass\nx = _used\n"
        "def unread():\n    pass\ndef cmd_x():\n    pass\n",
        "b": "from a import _K\ndef f():\n    return 1\n",
        # an unread chain: _b is read only by _a, which nothing reads
        "c": "def _a():\n    return _b()\ndef _b():\n    pass\n",
    }
    assert definitions_without_readers(sources) == ["a._self_only", "a.unread", "a.cmd_x", "b.f", "c._a", "c._b"]
    assert definitions_without_readers(sources, exempt=("cmd_", "_a")) == ["a._self_only", "a.unread", "b.f"]
    assert definitions_without_readers(sources, checked={"b"}) == ["b.f"]


def test_every_definition_has_a_reader():
    """Every module-level function and class in the package, private or
    public, is read in the package or exported from uag: code only tests
    call belongs in tests. main binds the cmd_* functions by verb name."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert definitions_without_readers(sources, exempt=("cmd_",)) == []


def test_every_oracle_has_a_reader():
    """Each oracle is read by a test or by the benchmark's reference."""
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources = {f"{p.parent.name}/{p.stem}": p.read_text(encoding="utf-8") for p in files}
    assert definitions_without_readers(sources, checked={"tests/oracles"}) == []


def test_every_cmd_function_is_bound_to_exactly_one_verb():
    # main runs the cmd_* named after the verb, with "-" read as "_"
    bound = {verb: "cmd_" + verb.replace("-", "_") for verb in cli.VERBS}
    cmds = {name for name, fn in vars(cli).items() if name.startswith("cmd_") and callable(fn)}
    assert len(bound) == 14
    assert len(set(bound.values())) == len(bound)
    assert set(bound.values()) == cmds


def test_the_option_tables_use_only_what_the_argv_reader_reads():
    """cli._read_argv reads argv off COMMON and VERBS. For every verb, each
    option's dest there is the one argparse gives it, and each option is
    one the reader handles: one value or store_true or append, with at most
    type, choices, default and required."""
    for verb in cli.VERBS:
        p = cli._add_arguments(argparse.ArgumentParser(prog=f"uag {verb}"), verb)
        actions = {tuple(a.option_strings): a.dest for a in p._actions if a.dest != "help"}
        specs = cli.COMMON + cli.VERBS[verb][1]
        assert actions == {flags: cli._dest(flags) for flags, _ in specs}, verb
        for flags, kwargs in specs:
            assert kwargs.get("action") in (None, "store_true", "append"), (verb, flags)
            assert set(kwargs) <= {"action", "type", "choices", "default", "required", "help"}, (verb, flags)
            assert not isinstance(kwargs.get("default"), str) or "type" not in kwargs, (verb, flags)


def readme_verbs(text: str) -> list[str]:
    """The verbs a README's `Verbs:` list names, in order: the first word of
    each backquoted span that opens a bullet, such as `morphism`, `iso`."""
    section = text.split("\nVerbs:\n\n", 1)[1].split("\n\n", 1)[0]
    verbs = []
    for item in re.split(r"^- ", section, flags=re.M)[1:]:
        head = re.match(r"`[^`]*`(?:, `[^`]*`)*", item)
        verbs += [span.split()[0] for span in re.findall(r"`([^`]*)`", head.group())] if head else []
    return verbs


def test_readme_verbs_detector():
    text = "x\n\nVerbs:\n\n- `a --b C` d `e`\n- `f`, `g-h` i\n  `j`\n- `k\n  [--l]` m\n\n- `n`\n"
    assert readme_verbs(text) == ["a", "f", "g-h", "k"]


def test_readme_lists_every_verb():
    assert readme_verbs((ROOT / "README.md").read_text(encoding="utf-8")) == list(cli.VERBS)


def callers_of(sources: dict[str, str], method: Optional[str], keyword: Optional[str] = None) -> list[str]:
    """module.function for each call of method (as f(...) or x.f(...); any
    callee if method is None) that passes keyword= if one is given, naming
    the innermost enclosing function, or the module alone."""
    out = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                named = method is None or getattr(f, "attr", getattr(f, "id", None)) == method
                if named and (keyword is None or keyword in [k.arg for k in child.keywords]):
                    out.append(where)
            visit(child, where)

    for module, source in sources.items():
        start = len(out)
        visit(ast.parse(source), "")
        out[start:] = [f"{module}.{fn}" if fn else module for fn in out[start:]]
    return out


def test_callers_detector():
    sources = {"a": "def f():\n    x.g()\n    def h():\n        return g(1, k=2)\n    return h\ng()\n", "b": "y = x.g\n"}
    assert callers_of(sources, "g") == ["a.f", "a.h", "a"]
    assert callers_of(sources, None, keyword="k") == callers_of(sources, "g", keyword="k") == ["a.h"]


def test_byte_tables_has_one_reader():
    """Whether members are kept as bytes or tuples is decided in one place."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert callers_of(sources, "byte_tables") == ["algebras._cells"]


def test_nullstellensatz_check_builds_no_presentation():
    """Its meet view checks the coordinate algebra's witnesses and tables,
    which is what the presentation's |Γ|² pairs would say."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert "geometry.nullstellensatz_check" not in callers_of(sources, "presentation_pairs")
    assert "geometry._holds_at_points" not in callers_of(sources, "presentation_pairs")


def test_greedy_generators_are_searched_in_one_place():
    """An algebra's greedy generating set is found once and kept on it."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert callers_of(sources, "_greedy_generators") == ["algebras.generation"]


def test_hom_kernel_labels_are_built_in_one_place():
    """h_ker and nullstellensatz_check read the meet of the hom kernels off
    extend_all's columns, in one function, and keep no list of homs: only
    variety_iso's bijection search lists them. The candidates are counted
    against the cap in one place too."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert callers_of(sources, "_hom_kernel_labels") == ["congruences.h_ker", "geometry.nullstellensatz_check"]
    assert callers_of(sources, "enumerate_homs") == ["geometry._bijective_homs"]
    assert callers_of(sources, "_hom_search") == ["algebras.enumerate_homs", "congruences.h_ker"]
    assert callers_of(sources, "_hom_candidates") == ["algebras._hom_search", "geometry.nullstellensatz_check"]


def test_points_are_grouped_by_subalgebra_in_one_place():
    """Only geometry.point_subalgebras dedupes point subalgebras by member sets."""
    counts = {p.stem: p.read_text(encoding="utf-8").count("frozenset(ms) for ms in") for p in SRC.glob("*.py")}
    assert {stem: n for stem, n in counts.items() if n} == {"geometry": 1}


def self_callers(sources: dict[str, str]) -> list[str]:
    """module.function for each function that calls itself: a function or
    closure by its bare name, a method as self.name. callers_of matches any
    x.f(...), so it would count sort_of for calling ctx.sort_of."""
    out = []

    def visit(node, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = [n.func for stmt in child.body for n in ast.walk(stmt) if isinstance(n, ast.Call)]
                own = [f.id for f in calls if isinstance(f, ast.Name)]
                own += [f.attr for f in calls if isinstance(f, ast.Attribute) and getattr(f.value, "id", "") == "self"]
                if child.name in own:
                    out.append(f"{module}.{child.name}")
            visit(child, module)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return out


def test_self_callers_detector():
    sources = {
        "a": "def f(n):\n    return f(n - 1)\ndef g():\n    def g2():\n        return g2()\n    return x.g()\n"
        "class K:\n    def m(self):\n        return self.m()\n    def n(self):\n        return super().n()\n",
    }
    assert self_callers(sources) == ["a.f", "a.g2", "a.m"]


# functions of the term modules that call themselves, none over a term: op
# tables one argument position per level, and formulas one connective per level
NOT_TERM_WALKS = ["algebras._cell_rows", "algebras._round_runs", "sexpr.parse_formula", "sexpr.print_formula"]

# The one term walk left recursive. An explicit stack in register lets the
# derive-fo benchmark's 5000-deep ground_closure succeed, and that op then
# costs 6-12 ms a cycle: ops_per_s falls 18-28% in two prototypes.
RECURSIVE_TERM_WALKS = ["congruences.register"]


def test_term_walks_are_loops():
    """Every term walk of terms, algebras and sexpr is a loop, at any depth:
    none calls itself, and no depth threshold hands deep terms to a second
    walk. Congruence registration is the one recursive term walk."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert self_callers({m: sources[m] for m in ("terms", "algebras", "sexpr")}) == NOT_TERM_WALKS
    assert self_callers({"congruences": sources["congruences"]}) == RECURSIVE_TERM_WALKS
    assert [m for m, source in sources.items() if "DEEP_TERM" in source] == []


def test_only_outside_tables_are_checked():
    """Every table built in the package is total and in range by
    construction, the stock algebras' rows among them; FiniteAlgebra checks
    only tables from outside it: a workspace's algebras."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert callers_of(sources, "FiniteAlgebra") == ["sexpr._parse_algebra"]
    assert "class Algebras" not in sources["sexpr"]


def test_only_outside_models_are_checked():
    """Relations the package builds are declared, of the right arity and in
    range by construction, and go to _built_model; Model checks only the
    rows of a workspace's models and of the CLI's relationless ones."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert callers_of(sources, "Model") == ["cli._battery_fundamental", "sexpr._parse_model"]
    assert callers_of(sources, "_built_model") == [
        "logic._submodel_view",
        "logic._principal_power",
        "logic.los_check",
        "logic.substitution_theorem_check",
    ]


def test_terms_evaluate_on_the_column_engine():
    """_eval_columns is the one term evaluator, and it steps its columns
    through _cells, as generation and hom extension do. Everything else
    reaches it through eval_columns, eval_pairs or a shared memo, and reads
    where two columns agree with agree_mask."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert callers_of(sources, "_cells") == ["algebras._eval_columns", "algebras.extend_all", "algebras.generate"]
    assert sorted(set(callers_of(sources, "_eval_columns"))) == [
        "algebras.eval_columns",
        "algebras.eval_pairs",
        "logic._value_mask",
        "rules._holds_at",
    ]
    assert callers_of(sources, "agree_mask") == ["geometry.variety_of", "logic._value_mask", "rules._holds_at"]


def test_products_and_submodels_are_generations():
    """product reads its tables off a generation, so algebras numbers no
    product rows itself; a submodel's relations are mapped in one function,
    the one that builds a SubmodelView."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    algebras = {"algebras": sources["algebras"]}
    assert callers_of(algebras, "index_to_tuple") == callers_of(algebras, "tuple_to_index") == []
    assert callers_of(sources, "SubmodelView") == ["logic._submodel_view"]
    assert callers_of(sources, "_submodel_view") == [
        "logic.restrict_submodel",
        "logic.fundamental_check",
        "logic.open_variety_check",
    ]
    assert callers_of(sources, "restrict_submodel") == ["logic.fundamental_check"]


def test_witnesses_are_read_off_a_generation():
    """generate builds no terms and has one result type: a generation's
    witness terms are read off its seeds and origin, in one place, when
    asked for. Only separating_pair stops a generation with a watch."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    algebras_source = {"algebras": sources["algebras"]}
    assert set(callers_of(algebras_source, "app")) == set(callers_of(algebras_source, "var")) == {"algebras.witnesses"}
    params = inspect.signature(algebras.generate).parameters
    assert "members_only" not in params and len(params) == 7
    assert callers_of(sources, None, keyword="watch") == ["geometry.separating_pair"]
