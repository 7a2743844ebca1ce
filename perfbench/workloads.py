"""The three workloads: seeded case pools, the ways a case is run, and its exact check.

A workload turns a seed into a fixed pool of cases, built before any timing
starts.  The invert workloads hand the program only the files they write
(vertices and moments); forward-series hands it only the measure objects.
Every case carries the answer it must produce, and a run that produces
anything else counts as failed.

Import this module only after `run.py` has put the checkout's `src/` first on
`sys.path` and checked where `polymom` resolves.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import select
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from pathlib import Path
from time import perf_counter

from polymom import cli, genfunc, inverse, oracle
from polymom.geometry import VertexSet, WeightedMeasure

# Exit codes documented for the `polymom` CLI.
EXIT_OK = 0
EXIT_SINGULAR = 4

# A case that runs this long has hung; it is killed and counted as failed.
CASE_TIMEOUT_S = 60

# Each run replays its pool in whole passes, at least this many, so the
# median and the tail fall among the same cases whatever the machine's speed.
# A run of this many passes has 10 samples beyond the tail percentile.
MIN_PASSES = {"invert-strong": 12, "invert-weak-svg": 4, "forward-series": 6}

# invert-strong: one vertex set of each (d, N), so shapes come in equal shares.
# The median falls on the (2,10) case and the tail on the (2,12) one.
STRONG_SHAPES = ((2, 8), (2, 10), (2, 12), (3, 7), (3, 9))

# invert-weak-svg: one multiset of each N on the grid, replayed as seeded
# symmetric images.  N = 7, 8, 9 in shares 1 : 2 : 2, so the median falls
# among the N = 8 cases and the tail among the N = 9 ones; every fifth case
# (here the N = 7 ones) plants weight on a degenerate column.  N = 10 is
# left out: one case costs about 3.7 s.
WEAK_MIX = (9, 8, 9, 8, 7, 9, 8, 9, 8, 7)
SINGULAR_EVERY = 5
# A 5 x 5 grid centred on the origin, so that a reflection keeps the size of
# every coordinate, and with it the cost of a case.
WEAK_GRID = tuple((x, y) for x in range(-2, 3) for y in range(-2, 3))

# forward-series: (d, order) cycles over FORWARD_SHAPES; the first five cases
# are signed sums (of a number of simplices cycling over FORWARD_SUM_SIZES),
# the next five dissections, and so on.
FORWARD_SHAPES = ((2, 8), (2, 9), (2, 10), (3, 5), (3, 6))
FORWARD_SUM_SIZES = (3, 4, 5)
FORWARD_POOL = 10


@dataclass
class InvertCase:
    """One `polymom invert` call and the reconstruction it must write."""

    shape: str
    argv: list
    out: Path
    svg: Path | None
    stderr: Path
    code: int  # expected exit code
    weights: dict  # simplex -> planted weight, over exactly the solver's columns
    degenerate: frozenset  # the flat simplices among them


@dataclass
class ForwardCase:
    """One signed measure whose series moments must equal the oracle's."""

    shape: str
    measure: WeightedMeasure
    order: int
    interior: tuple | None  # dissection point whose form must cancel


# --- exact geometry for building inputs, independent of the library --------


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _edge_det(points):
    """Signed determinant of the edge vectors p_i - p_0; zero iff flat."""
    base = points[0]
    return _det([[q[k] - base[k] for k in range(len(base))] for q in points[1:]])


def _flat(points, subset):
    return _edge_det([points[i] for i in subset]) == 0


def _rational(rng, span=5, max_den=3):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * den, span * den), den)


def _weight(rng):
    while True:
        w = _rational(rng, span=9)
        if w != 0:
            return w


def _complement(column, n):
    return tuple(sorted(set(range(n)) - set(column)))


# --- inputs on disk ---------------------------------------------------------


def _write_inputs(case_dir: Path, dim, points, moments: dict, order):
    case_dir.mkdir(parents=True)
    vertices = {"dim": dim, "points": [[str(c) for c in p] for p in points]}
    table = {
        "dim": dim,
        "order": order,
        "moments": [{"index": list(e), "value": str(v)} for e, v in sorted(moments.items())],
    }
    (case_dir / "vertices.json").write_text(json.dumps(vertices), encoding="utf-8")
    (case_dir / "table.json").write_text(json.dumps(table), encoding="utf-8")


def _invert_case(case_dir, shape, dim, points, moments, order, weights, degenerate, svg):
    _write_inputs(case_dir, dim, points, moments, order)
    out = case_dir / "rec.json"
    argv = ["invert", str(case_dir / "vertices.json"), str(case_dir / "table.json"), "--out", str(out)]
    svg_path = case_dir / "map.svg" if svg else None
    if svg_path is not None:
        argv += ["--svg", str(svg_path)]
    singular = any(weights[s] != 0 for s in degenerate)
    return InvertCase(
        shape=shape,
        argv=argv,
        out=out,
        svg=svg_path,
        stderr=case_dir / "stderr.txt",
        code=EXIT_SINGULAR if singular else EXIT_OK,
        weights=weights,
        degenerate=frozenset(degenerate),
    )


def _symmetry(rng, dim):
    """A seeded coordinate permutation with sign changes.

    It is linear, so it keeps which subsets are flat and every rank the
    solver tests; it keeps the size of every coordinate, so it keeps the
    cost of a case.
    """
    perm = rng.sample(range(dim), dim)
    flips = [rng.random() < 0.5 for _ in range(dim)]
    return lambda p: tuple(-p[k] if f else p[k] for k, f in zip(perm, flips))


# --- invert-strong ----------------------------------------------------------


def _strong_points(rng, dim, n):
    """n rational points of which every d+1 span."""
    while True:
        pts = [tuple(_rational(rng) for _ in range(dim)) for _ in range(n)]
        if not any(_flat(pts, s) for s in combinations(range(n), dim + 1)):
            return pts


def strong_cases(catalogue, rng, workdir: Path):
    """Planted weights on the through-pivot basis; moments to order N-d-1 from the oracle."""
    for i, (dim, n) in enumerate(STRONG_SHAPES):
        pts = list(map(_symmetry(rng, dim), _strong_points(catalogue, dim, n)))
        order = n - dim - 1
        # The default pivot is the last vertex; the basis columns are the
        # order-subsets of the other vertices, in ascending order.
        simplices = [_complement(c, n) for c in combinations(range(n - 1), order)]
        weights = {s: _weight(rng) for s in simplices}
        table = oracle.measure_moments(WeightedMeasure(VertexSet(dim, pts), list(weights.items())), order)
        yield _invert_case(
            workdir / f"case{i:02d}", f"d{dim}n{n}", dim, pts, table.moments, order,
            weights, (), svg=False,
        )


# --- invert-weak-svg --------------------------------------------------------


def _weak_points(rng, n):
    """n grid points, one of them repeated, with a flat triple but no four on a line."""
    while True:
        pts = rng.sample(WEAK_GRID, n - 1)
        pts.append(rng.choice(pts))
        rng.shuffle(pts)
        flat = {s for s in combinations(range(n), 3) if _flat(pts, s)}
        if not any(all(t in flat for t in combinations(q, 3)) for q in combinations(range(n), 4)):
            return pts, flat


def weak_cases(catalogue, rng, workdir: Path):
    """Planted weights on the solver's minor; singular terms expanded by `taylor`.

    The minor comes from `select_minor` on the base multiset; a symmetry keeps
    every rank it tests, so it is the minor of each image too, and the planted
    weights are exactly the ones the solver must return.  The oracle rejects
    flat simplices, so the moments of a singular term come from its rational
    function instead.
    """
    bases = {}
    for n in sorted(set(WEAK_MIX)):
        pts, flat = _weak_points(catalogue, n)
        columns = inverse.select_minor(VertexSet(2, pts)).columns
        bases[n] = pts, flat, [_complement(c, n) for c in columns]
    for i, n in enumerate(WEAK_MIX):
        base, flat, simplices = bases[n]
        singular = i % SINGULAR_EVERY == SINGULAR_EVERY - 1
        pts = list(map(_symmetry(rng, 2), base))
        vs = VertexSet(2, pts)
        order = n - 3
        degenerate = [s for s in simplices if s in flat]
        weights = {s: Fraction(0) if s in flat else _weight(rng) for s in simplices}
        if singular:
            weights[rng.choice(degenerate)] = _weight(rng)
        regular = [(s, w) for s, w in weights.items() if s not in flat]
        moments = dict(oracle.measure_moments(WeightedMeasure(vs, regular), order).moments)
        for s in degenerate:
            if weights[s] != 0:
                f = genfunc.simplex_genfunc(s, vs, weights[s], allow_degenerate=True)
                extra = genfunc.series_to_moments(genfunc.taylor(f, order), 2).moments
                for e, v in extra.items():
                    moments[e] += v
        yield _invert_case(
            workdir / f"case{i:02d}", f"n{n}" + ("-singular" if singular else ""), 2, pts,
            moments, order, weights, degenerate, svg=True,
        )


# --- forward-series ---------------------------------------------------------


def _signed_sum(catalogue, rng, dim, k):
    """k distinct non-flat simplices on d+3 shared points, signed weights."""
    while True:
        pts = [tuple(_rational(catalogue) for _ in range(dim)) for _ in range(dim + 3)]
        simplices = [s for s in combinations(range(dim + 3), dim + 1) if not _flat(pts, s)]
        if len(simplices) >= k:
            break
    chosen = catalogue.sample(simplices, k)
    pts = list(map(_symmetry(rng, dim), pts))
    return WeightedMeasure(VertexSet(dim, pts), [(s, _weight(rng)) for s in chosen]), None


def _dissection(catalogue, rng, dim):
    """A simplex of constant signed density, coned from an interior point over its facets."""
    while True:
        pts = [tuple(_rational(catalogue) for _ in range(dim)) for _ in range(dim + 1)]
        if _edge_det(pts) != 0:
            break
    bary = [catalogue.randint(1, 5) for _ in pts]
    pts.append(tuple(sum(b * q[k] for b, q in zip(bary, pts)) / sum(bary) for k in range(dim)))
    pts = list(map(_symmetry(rng, dim), pts))
    density = _weight(rng)
    atoms = []
    for omit in range(dim + 1):
        s = tuple(i for i in range(dim + 2) if i != omit)
        atoms.append((s, density * abs(_edge_det([pts[i] for i in s]))))
    return WeightedMeasure(VertexSet(dim, pts), atoms), pts[-1]


def forward_cases(catalogue, rng, workdir: Path):
    for i in range(FORWARD_POOL):
        dim, order = FORWARD_SHAPES[i % len(FORWARD_SHAPES)]
        if (i // len(FORWARD_SHAPES)) % 2:
            measure, interior = _dissection(catalogue, rng, dim)
            kind = "dissection"
        else:
            k = FORWARD_SUM_SIZES[i % len(FORWARD_SUM_SIZES)]
            measure, interior = _signed_sum(catalogue, rng, dim, k)
            kind = f"sum{k}"
        yield ForwardCase(f"d{dim}o{order}-{kind}", measure, order, interior)


WORKLOADS = {
    "invert-strong": strong_cases,
    "invert-weak-svg": weak_cases,
    "forward-series": forward_cases,
}


def build(workload: str, seed: int, workdir: Path, limit=None):
    """The workload's case pool for this seed; the same seed gives the same pool.

    `limit` keeps only the first cases, and builds no others.

    The configurations come from a catalogue drawn from a fixed seed, so a
    pool costs the same whatever the run's seed and run-to-run spread shows
    the machine, not the draw.  The run's seed moves every configuration by a
    symmetry and draws the planted weights.
    """
    catalogue = random.Random(f"{workload} catalogue")
    cases = WORKLOADS[workload](catalogue, random.Random(f"{workload}:{seed}"), workdir)
    return list(islice(cases, limit))


# --- running and checking ---------------------------------------------------


def _clear_outputs(case: InvertCase):
    for path in (case.out, case.svg):
        if path is not None and path.exists():
            path.unlink()


def _wait(proc):
    """Exit code and peak RSS (KiB) of a child, read from its own rusage."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], CASE_TIMEOUT_S)
    finally:
        os.close(fd)
    if not ready:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def run_timed(case, env, cwd):
    """Run a case the way users do; return (seconds, peak RSS KiB, error or None)."""
    if isinstance(case, ForwardCase):
        start = perf_counter()
        error = _run_forward(case)
        seconds = perf_counter() - start
        return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, error
    _clear_outputs(case)
    with open(case.stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "polymom.cli", *case.argv],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        code, rss = _wait(proc)
        seconds = perf_counter() - start
    error = check_invert(case, code)
    if error is not None:
        tail = case.stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        error = f"{error} {tail}" if tail else error
    return seconds, rss, error


def run_inprocess(case):
    """Run a case through the library in this process; return an error or None.

    Invert cases go through `polymom.cli.main` with the same argv, so a trace
    follows whatever path the CLI takes.
    """
    if isinstance(case, ForwardCase):
        return _run_forward(case)
    _clear_outputs(case)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(case.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash fails this case; the run goes on
        return f"{type(exc).__name__}: {exc}"
    return check_invert(case, code)


def _run_forward(case: ForwardCase):
    try:
        f = genfunc.measure_genfunc(case.measure)
        table = genfunc.series_to_moments(genfunc.taylor(f, case.order), case.measure.vertex_set.dim)
        reference = oracle.measure_moments(case.measure, case.order)
    except Exception as exc:  # a crash fails this case; the run goes on
        return f"{type(exc).__name__}: {exc}"
    if table != reference:
        return "series moments differ from the oracle"
    if case.interior is not None and any(form.vertex == case.interior for form in f.denominator):
        return "interior vertex form did not cancel"
    return None


def check_invert(case: InvertCase, code):
    """None when the exit code, weights, singular flag and SVG are all as planted."""
    if code != case.code:
        return f"exit {code}, expected {case.code}"
    try:
        rec = json.loads(case.out.read_text(encoding="utf-8"))
        got = {
            tuple(w["simplex"]): (Fraction(w["weight"]), w["degenerate"]) for w in rec["weights"]
        }
        singular = rec["singular"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable reconstruction: {exc}"
    want = {s: (w, s in case.degenerate) for s, w in case.weights.items()}
    if got != want:
        return "weights differ from the planted ones"
    if singular is not (case.code == EXIT_SINGULAR):
        return f"singular flag {singular}"
    if case.svg is None:
        return None
    if case.code == EXIT_SINGULAR:
        return "SVG written for a singular reconstruction" if case.svg.exists() else None
    try:
        svg = ET.parse(case.svg).getroot()
    except (OSError, ET.ParseError) as exc:
        return f"SVG does not parse: {exc}"
    if svg.tag != "{http://www.w3.org/2000/svg}svg" or svg.find("{*}polygon") is None:
        return "SVG has no chamber polygons"
    return None
