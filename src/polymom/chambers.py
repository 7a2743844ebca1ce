"""Chamber decomposition of a planar convex hull by all point-pair lines.

The hull of the vertex set is split incrementally by every line through two
distinct points, keeping exact rational vertices throughout; the resulting
cells are the chambers.  A chamber lies wholly on one side of every line, and
the split records that side as a bit of the chamber's sign vector
(Edelsbrunner, *Algorithms in Combinatorial Geometry*, 1987).  Every edge of
a basis triangle is one of the lines, so a chamber lies in a triangle exactly
when its sides of the three edge lines are those of the opposite vertices.
Each chamber gets the sum of the densities of the triangles containing it,
and the map can be rendered as a deterministic SVG with exact "p/q" labels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionError
from .geometry import VertexSet
from .value import Value


def _canonical_line(p, q):
    """Normalized (a, b, c) with a*x + b*y + c = 0 through p and q.

    Scaled to coprime integers with the first nonzero coefficient positive,
    so the same geometric line always produces the same triple.
    """
    a = q[1] - p[1]
    b = p[0] - q[0]
    c = -(a * p[0] + b * p[1])
    denom = lcm(a.denominator, b.denominator, c.denominator)
    ia, ib, ic = int(a * denom), int(b * denom), int(c * denom)
    g = gcd(ia, gcd(ib, ic))
    ia, ib, ic = ia // g, ib // g, ic // g
    lead = ia if ia != 0 else ib
    if lead < 0:
        ia, ib, ic = -ia, -ib, -ic
    return (ia, ib, ic)


def convex_hull_2d(points):
    """Monotone-chain hull, counterclockwise, exact arithmetic."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise DimensionError("need at least 3 distinct points for a 2-d hull")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _split_polygon(polygon, line):
    """Split a convex polygon by a line into (negative side, positive side).

    When the line misses the interior, the polygon lies wholly on one side:
    it is returned as that part and the other part is None.
    """
    a, b, c = line
    # a*x + b*y + c at each vertex as (numerator, positive denominator)
    values = []
    for x, y in polygon:
        dx, dy = x.denominator, y.denominator
        values.append((a * x.numerator * dy + b * y.numerator * dx + c * dx * dy, dx * dy))
    if all(v >= 0 for v, _ in values):
        return None, polygon
    if all(v <= 0 for v, _ in values):
        return polygon, None
    neg, pos = [], []
    n = len(polygon)
    for i in range(n):
        p, (vp, dp) = polygon[i], values[i]
        q, (vq, dq) = polygon[(i + 1) % n], values[(i + 1) % n]
        if vp <= 0:
            neg.append(p)
        if vp >= 0:
            pos.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            t = Fraction(vp * dq, vp * dq - vq * dp)
            cut = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            neg.append(cut)
            pos.append(cut)
    return tuple(neg), tuple(pos)


def _polygon_area(polygon) -> Fraction:
    total = Fraction(0)
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def _centroid(polygon):
    n = len(polygon)
    return (
        sum(p[0] for p in polygon) / n,
        sum(p[1] for p in polygon) / n,
    )


class Chamber(Value):
    """One cell of the map.

    `polygon` is its CCW cycle of exact (x, y) vertices and `point` a
    representative interior point (the vertex centroid).  Bit k of `sides`
    is set iff the chamber lies on the positive side of `lines[k]`.
    """

    __slots__ = ("polygon", "point", "sides", "density")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, polygon: tuple, point: tuple, sides: int, density: Fraction | None = None):
        self._fill(polygon, point, sides, density)

    def area(self) -> Fraction:
        return _polygon_area(self.polygon)


class ChamberMap(Value):
    """The chambers of a vertex set's point-pair lines.

    `edges` maps each index pair (i, j), i < j, of distinct points to the
    position of their line in `lines`.
    """

    __slots__ = ("vertex_set", "lines", "chambers", "edges")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, vertex_set: VertexSet, lines: tuple, chambers: tuple, edges: dict):
        self._fill(vertex_set, lines, chambers, edges)


def build_chambers(vs: VertexSet) -> ChamberMap:
    """Subdivide conv(S) by the deduplicated lines through all point pairs."""
    if vs.dim != 2:
        raise DimensionError("chamber decomposition is implemented for d = 2 only")
    pts = list(vs.points)
    pairs = {
        (i, j): _canonical_line(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if pts[i] != pts[j]
    }
    lines = sorted(set(pairs.values()))
    index = {line: k for k, line in enumerate(lines)}
    cells = [(tuple(convex_hull_2d(pts)), 0)]
    for k, line in enumerate(lines):
        next_cells = []
        for cell, sides in cells:
            neg, pos = _split_polygon(cell, line)
            if neg is not None:
                next_cells.append((neg, sides))
            if pos is not None:
                next_cells.append((pos, sides | 1 << k))
        cells = next_cells
    chambers = [Chamber(cell, _centroid(cell), sides) for cell, sides in cells]
    chambers.sort(key=lambda ch: ch.point)
    return ChamberMap(vs, tuple(lines), tuple(chambers), {pair: index[line] for pair, line in pairs.items()})


def _triangle_sides(simplex, cm: ChamberMap):
    """(mask, sides): a chamber lies in the triangle iff its sides & mask == sides.

    mask has the bits of the three edge lines, sides those of the edges whose
    opposite vertex is on the positive side.  The triangle must not be flat.
    """
    points = cm.vertex_set.points
    mask = sides = 0
    for k, opposite in enumerate(simplex):
        line = cm.edges[tuple(sorted(simplex[:k] + simplex[k + 1 :]))]
        a, b, c = cm.lines[line]
        x, y = points[opposite]
        mask |= 1 << line
        if a * x + b * y + c > 0:
            sides |= 1 << line
    return mask, sides


def chamber_densities(cm: ChamberMap, simplex_densities) -> ChamberMap:
    """Assign each chamber the density sum of the triangles covering it.

    `simplex_densities` is a list of (simplex, density) pairs of non-degenerate
    triangles over the map's vertex set, as produced by geometry.density.
    """
    tris = [(*_triangle_sides(s, cm), d) for s, d in simplex_densities]
    chambers = []
    for ch in cm.chambers:
        total = Fraction(0)
        for mask, sides, dens in tris:
            if ch.sides & mask == sides:
                total += dens
        chambers.append(Chamber(ch.polygon, ch.point, ch.sides, total))
    return ChamberMap(cm.vertex_set, cm.lines, tuple(chambers), cm.edges)


# --- SVG output -----------------------------------------------------------

_SVG_SCALE = 100  # user units per coordinate unit


def _fixed(value: Fraction) -> str:
    """Exact decimal rendering with two digits (round half up)."""
    scaled = value * 100
    n = scaled.numerator
    d = scaled.denominator
    q, r = divmod(abs(n), d)
    if 2 * r >= d:
        q += 1
    sign = "-" if n < 0 else ""
    return f"{sign}{q // 100}.{q % 100:02d}"


def _color(t: Fraction) -> str:
    """Diverging blue-white-red scale for t in [0, 1], exact interpolation."""
    t = min(max(t, Fraction(0)), Fraction(1))
    lo, mid, hi = (69, 117, 180), (247, 247, 247), (215, 48, 39)
    if t <= Fraction(1, 2):
        f = 2 * t
        rgb = [round(a + f * (b - a)) for a, b in zip(lo, mid)]
    else:
        f = 2 * t - 1
        rgb = [round(a + f * (b - a)) for a, b in zip(mid, hi)]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def render_svg(cm: ChamberMap) -> str:
    """Deterministic SVG: filled chambers, exact density labels, vertex dots."""
    pts = cm.vertex_set.points
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    width = max(xs) - min(xs)
    height = max(ys) - min(ys)
    margin_x = width * Fraction(5, 100)
    margin_y = height * Fraction(5, 100)
    x0, y0 = min(xs) - margin_x, min(ys) - margin_y
    x1, y1 = max(xs) + margin_x, max(ys) + margin_y

    def sx(x):
        return _fixed((x - x0) * _SVG_SCALE)

    def sy(y):
        return _fixed((y1 - y) * _SVG_SCALE)

    view_w = _fixed((x1 - x0) * _SVG_SCALE)
    view_h = _fixed((y1 - y0) * _SVG_SCALE)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {view_w} {view_h}">',
    ]
    densities = [ch.density for ch in cm.chambers if ch.density is not None]
    lo = min(densities, default=Fraction(0))
    hi = max(densities, default=Fraction(0))
    span = hi - lo
    coords = {}  # each distinct polygon vertex, formatted once
    for ch in cm.chambers:
        for x, y in ch.polygon:
            if (x, y) not in coords:
                coords[x, y] = f"{sx(x)},{sy(y)}"
        points = " ".join(coords[p] for p in ch.polygon)
        if ch.density is None:
            fill = "none"
        else:
            t = (ch.density - lo) / span if span != 0 else Fraction(1, 2)
            fill = _color(t)
        out.append(
            f'  <polygon points="{points}" fill="{fill}" stroke="#333333" stroke-width="1"/>'
        )
    for ch in cm.chambers:
        if ch.density is None:
            continue
        out.append(
            f'  <text x="{sx(ch.point[0])}" y="{sy(ch.point[1])}" font-size="14" '
            f'text-anchor="middle" fill="#000000">{ch.density}</text>'
        )
    for i, p in enumerate(pts):
        out.append(f'  <circle cx="{sx(p[0])}" cy="{sy(p[1])}" r="3" fill="#000000"/>')
        out.append(
            f'  <text x="{sx(p[0])}" y="{sy(p[1])}" dx="5" dy="-5" font-size="12" '
            f'fill="#000000">v{i + 1}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(cm: ChamberMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(cm))
