"""The CLI's file formats: what each command reads and writes.

Rationals travel as strings "p/q" (just "p" for integers), sign on the
numerator.  A reader checks only the file's shape: its keys, and that no
moment index comes twice.  Each value goes as it is to the constructor it
reaches, which reads it by the package's one rule for its kind (`linalg.rat`
or `value.integer`), so a bool, float or string where an integer is due is
malformed input.  Vertex and simplex indices are 0-based on the wire; the
paper's worked examples number from 1, so the CLI accepts 1-based column
overrides but files are uniformly 0-based.  Polynomial terms and moment
entries are sorted graded-lex; that ordering is normative for matrix
reproduction.
"""

from __future__ import annotations

from .geometry import VertexSet, WeightedMeasure
from .linalg import rat_str
from .poly import MomentTable, Poly


def vertex_set_to_json(vs: VertexSet) -> dict:
    return {"dim": vs.dim, "points": [[rat_str(c) for c in p] for p in vs.points]}


def vertex_set_from_json(data) -> VertexSet:
    return VertexSet(data["dim"], data["points"])


def measure_to_json(m: WeightedMeasure) -> dict:
    return {
        "vertices": vertex_set_to_json(m.vertex_set),
        "atoms": [{"simplex": list(s), "weight": rat_str(w)} for s, w in m.atoms],
    }


def measure_from_json(data) -> WeightedMeasure:
    vs = vertex_set_from_json(data["vertices"])
    return WeightedMeasure(vs, [(a["simplex"], a["weight"]) for a in data["atoms"]])


def moment_table_to_json(t: MomentTable) -> dict:
    return {
        "dim": t.dim,
        "order": t.order,
        "moments": [
            {"index": list(e), "value": rat_str(v)} for e, v in t.moments.items()
        ],
    }


def moment_table_from_json(data) -> MomentTable:
    moments = {}
    for m in data["moments"]:
        exps = tuple(m["index"])
        if exps in moments:
            raise ValueError(f"duplicate moment index {exps}")
        moments[exps] = m["value"]
    return MomentTable(data["dim"], data["order"], moments)


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


def reconstruction_to_json(r) -> dict:
    return {
        "pivot": r.pivot,
        "weights": [
            {"simplex": list(s), "weight": rat_str(w), "degenerate": dg}
            for s, w, dg in r.weights
        ],
        "singular": r.is_singular,
    }
