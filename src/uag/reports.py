"""Deterministic rendering of results as text or JSON.

Everything that reaches the CLI goes through `emit`, and every collection is
sorted before it gets here, so equal inputs (and equal seeds) produce
byte-identical output.
"""

from __future__ import annotations

import json
from typing import Any

from .congruences import PairSet
from .rules import Clause, DeriveResult
from .spaces import PointSet
from .terms import Substitution, Term, Value, render


def to_jsonable(obj: Any) -> Any:
    """Plain JSON data for a result; a result Value (terms.Value) becomes its
    fields in declaration order, and only Clause and DeriveResult, whose JSON
    is not their field list, are spelled out."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Term):
        return render(obj)
    if isinstance(obj, PairSet):
        return [[render(a), render(b)] for a, b in obj.pairs]
    if isinstance(obj, PointSet):
        return [list(p) for p in obj.points()]
    if isinstance(obj, Substitution):
        return {name: render(t) for name, t in sorted(obj.bindings.items())}
    if isinstance(obj, Clause):
        out: dict[str, Any] = {"kind": obj.kind}
        if obj.kind == "identity":
            out["pair"] = to_jsonable_pair(obj.cons)
        elif obj.kind == "pseudo":
            out["pos"] = to_jsonable(obj.pos)
        elif obj.kind == "universal":
            out["pos"] = to_jsonable(obj.pos)
            out["neg"] = to_jsonable(obj.neg)
        else:
            out["ante"] = to_jsonable(obj.ante)
            out["cons"] = to_jsonable_pair(obj.cons) if obj.cons is not None else False
        return out
    if isinstance(obj, DeriveResult):
        return {
            "count": len(obj.clauses),
            "exhausted": obj.exhausted,
            "rounds": obj.rounds,
            "clauses": [to_jsonable(c) for c in obj.clauses],
        }
    if isinstance(obj, Value):
        return {f: to_jsonable(getattr(obj, f)) for f in obj._fields}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    return str(obj)


def to_jsonable_pair(p) -> list[str]:
    return [render(p[0]), render(p[1])]


def _text_lines(value: Any, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}{k}:")
                _text_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}-")
                _text_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}- {_scalar(v)}")
    else:
        out.append(f"{pad}{_scalar(value)}")


def _scalar(v: Any) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[]"
    if isinstance(v, dict):
        return "{}"
    return str(v)


def emit(payload: dict, fmt: str) -> str:
    data = to_jsonable(payload)
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    lines: list[str] = []
    _text_lines(data, 0, lines)
    return "\n".join(lines) + "\n"
