"""The CLI's file formats: what each command reads and writes.

Rationals travel as strings "p/q" (just "p" for integers), sign on the
numerator.  A dimension, an order, a moment index entry and a simplex's
vertex index must each be a JSON integer; a bool, float or string there is
malformed input.  Vertex and simplex indices are 0-based on the wire; the
paper's worked examples number from 1, so the CLI accepts 1-based column
overrides but files are uniformly 0-based.  Polynomial terms and moment
entries are sorted graded-lex; that ordering is normative for matrix
reproduction.
"""

from __future__ import annotations

from .geometry import VertexSet, WeightedMeasure
from .inverse import Reconstruction
from .linalg import rat, rat_str
from .poly import MomentTable, Poly


def _int(value) -> int:
    """A JSON integer, which excludes bool; anything else is malformed input."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def vertex_set_to_json(vs: VertexSet) -> dict:
    return {"dim": vs.dim, "points": [[rat_str(c) for c in p] for p in vs.points]}


def vertex_set_from_json(data) -> VertexSet:
    return VertexSet(_int(data["dim"]), [[rat(c) for c in p] for p in data["points"]])


def measure_to_json(m: WeightedMeasure) -> dict:
    return {
        "vertices": vertex_set_to_json(m.vertex_set),
        "atoms": [{"simplex": list(s), "weight": rat_str(w)} for s, w in m.atoms],
    }


def measure_from_json(data) -> WeightedMeasure:
    vs = vertex_set_from_json(data["vertices"])
    atoms = [(tuple(map(_int, a["simplex"])), rat(a["weight"])) for a in data["atoms"]]
    return WeightedMeasure(vs, atoms)


def moment_table_to_json(t: MomentTable) -> dict:
    return {
        "dim": t.dim,
        "order": t.order,
        "moments": [
            {"index": list(e), "value": rat_str(v)} for e, v in t.sorted_items()
        ],
    }


def moment_table_from_json(data) -> MomentTable:
    moments = {}
    for m in data["moments"]:
        exps = tuple(map(_int, m["index"]))
        if exps in moments:
            raise ValueError(f"duplicate moment index {exps}")
        moments[exps] = rat(m["value"])
    return MomentTable(_int(data["dim"]), _int(data["order"]), moments)


def poly_to_json(p: Poly) -> dict:
    return {
        "dim": p.dim,
        "terms": [
            {"exp": list(e), "coef": rat_str(c)} for e, c in p.sorted_terms()
        ],
    }


def ratfun_to_json(f) -> dict:
    counts = {}
    for form in f.denominator:
        counts[form.vertex] = counts.get(form.vertex, 0) + 1
    return {
        "numerator": poly_to_json(f.numerator),
        "denominator": [
            {"vertex": [rat_str(c) for c in v], "mult": n}
            for v, n in sorted(counts.items())
        ],
    }


def reconstruction_to_json(r: Reconstruction) -> dict:
    return {
        "pivot": r.pivot,
        "weights": [
            {"simplex": list(s), "weight": rat_str(w), "degenerate": dg}
            for s, w, dg in r.weights
        ],
        "singular": r.is_singular,
    }
