"""Chamber decomposition of a planar convex hull by all point-pair lines.

The hull of the vertex set is split incrementally by every line through two
distinct points; the resulting cells are the chambers.  A cell vertex is the
gcd-reduced integer row (W, X, Y), W > 0, of the exact point (X/W, Y/W), as
`geometry.homogeneous` gives it for the input points, and a line (a, b, c)
is a*X + b*Y + c*W = 0.  So the split, centroids, densities and SVG run in
integers and a `Fraction` is formed only where a caller reads one.  A
chamber lies wholly on one side of every line, and the split records that
side as a bit of the chamber's sign vector (Edelsbrunner, *Algorithms in
Combinatorial Geometry*, 1987).
Every edge of a basis triangle is one of the lines, so a chamber lies in a
triangle exactly when its sides of the three edge lines are those of the
opposite vertices.  Each chamber gets the sum of the densities of the
triangles containing it, and the map can be rendered as a deterministic SVG
with exact "p/q" labels.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionError
from .geometry import VertexSet, homogeneous
from .linalg import integer_vector
from .value import Value


def _canonical_line(p, q):
    """Normalized (a, b, c) with a*X + b*Y + c*W = 0 through homogeneous p and q.

    Scaled to coprime integers with the first nonzero coefficient positive,
    so the same geometric line always produces the same triple.
    """
    (w1, x1, y1), (w2, x2, y2) = p, q
    a, b, c = w1 * y2 - y1 * w2, x1 * w2 - w1 * x2, y1 * x2 - x1 * y2
    g = gcd(a, b, c)
    if (a if a != 0 else b) < 0:
        g = -g
    return (a // g, b // g, c // g)


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
    """Split a convex polygon of homogeneous vertices by a line into (negative side, positive side).

    When the line misses the interior, the polygon lies wholly on one side:
    it is returned as that part and the other part is None.
    """
    a, b, c = line
    values = [a * x + b * y + c * w for w, x, y in polygon]
    if min(values) >= 0:
        return None, polygon
    if max(values) <= 0:
        return polygon, None
    neg, pos = [], []
    n = len(polygon)
    for i in range(n):
        p, vp = polygon[i], values[i]
        q, vq = polygon[(i + 1) % n], values[(i + 1) % n]
        if vp <= 0:
            neg.append(p)
        if vp >= 0:
            pos.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            s, t = abs(vq), abs(vp)  # the value s*vp + t*vq of the cut is 0
            w, x, y = s * p[0] + t * q[0], s * p[1] + t * q[1], s * p[2] + t * q[2]
            g = gcd(w, x, y)
            cut = (w // g, x // g, y // g)
            neg.append(cut)
            pos.append(cut)
    return tuple(neg), tuple(pos)


def _centroid(vertices):
    """The vertex centroid of homogeneous vertices, over their one common denominator."""
    w = lcm(*(v[0] for v in vertices))
    sx = sy = 0
    for v, x, y in vertices:
        sx += x * (w // v)
        sy += y * (w // v)
    n = len(vertices) * w
    return Fraction(sx, n), Fraction(sy, n)


class Chamber(Value):
    """One cell of the map.

    `vertices` is its CCW cycle of homogeneous integer vertices (W, X, Y),
    W > 0 and gcd 1, and the property `polygon` the same cycle as exact
    (X/W, Y/W) `Fraction` pairs, formed on each read.  `point` is a
    representative interior point (the vertex centroid).  Bit k of `sides`
    is set iff the chamber lies on the positive side of `lines[k]`.
    """

    __slots__ = ("vertices", "point", "sides", "density")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, vertices: tuple, point: tuple, sides: int, density: Fraction | None = None):
        self._fill(vertices, point, sides, density)

    @property
    def polygon(self) -> tuple:
        return tuple((Fraction(x, w), Fraction(y, w)) for w, x, y in self.vertices)

    def area(self) -> Fraction:
        p = self.polygon
        twice = sum((x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(p, p[1:] + p[:1])), Fraction(0))
        return abs(twice) / 2


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
    pts = [homogeneous(p) for p in vs.points]
    pairs = {
        (i, j): _canonical_line(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if pts[i] != pts[j]
    }
    lines = sorted(set(pairs.values()))
    index = {line: k for k, line in enumerate(lines)}
    cells = [(tuple(map(homogeneous, convex_hull_2d(vs.points))), 0)]
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


def _triangle_sides(simplex, cm: ChamberMap, points):
    """(mask, sides): a chamber lies in the triangle iff its sides & mask == sides.

    mask has the bits of the three edge lines, sides those of the edges whose
    opposite vertex, of the homogeneous `points`, is on the positive side.
    The triangle must not be flat.
    """
    mask = sides = 0
    for k, opposite in enumerate(simplex):
        line = cm.edges[tuple(sorted(simplex[:k] + simplex[k + 1 :]))]
        a, b, c = cm.lines[line]
        w, x, y = points[opposite]
        mask |= 1 << line
        if a * x + b * y + c * w > 0:
            sides |= 1 << line
    return mask, sides


def chamber_densities(cm: ChamberMap, simplex_densities) -> ChamberMap:
    """Assign each chamber the density sum of the triangles covering it.

    `simplex_densities` is a list of (simplex, density) pairs of non-degenerate
    triangles over the map's vertex set, as produced by geometry.density.
    """
    points = [homogeneous(p) for p in cm.vertex_set.points]
    tris = [(_triangle_sides(s, cm, points), d) for s, d in simplex_densities]
    numerators, scale = integer_vector(d for _, d in tris)
    tris = [(*t, n) for (t, _), n in zip(tris, numerators)]
    chambers = []
    for ch in cm.chambers:
        total = 0
        for mask, sides, n in tris:
            if ch.sides & mask == sides:
                total += n
        chambers.append(Chamber(ch.vertices, ch.point, ch.sides, Fraction(total, scale)))
    return ChamberMap(cm.vertex_set, cm.lines, tuple(chambers), cm.edges)


# --- SVG output -----------------------------------------------------------

_SVG_SCALE = 100  # user units per coordinate unit


def _fixed(n: int, d: int) -> str:
    """Exact decimal rendering of n/d, d > 0, with two digits (round half up)."""
    q, r = divmod(abs(n) * 100, d)
    if 2 * r >= d:
        q += 1
    sign = "-" if n < 0 else ""
    return f"{sign}{q // 100}.{q % 100:02d}"


def _color(offset: int, span: int) -> str:
    """Blue-white-red at t = offset/span in [0, 1] (1/2 when span is 0), each channel rounded half to even."""
    if span == 0:
        offset, span = 1, 2
    if 2 * offset <= span:
        ends, f = ((69, 117, 180), (247, 247, 247)), 2 * offset  # f / span = 2t
    else:
        ends, f = ((247, 247, 247), (215, 48, 39)), 2 * offset - span  # 2t - 1
    rgb = []
    for a, b in zip(*ends):
        q, r = divmod(a * span + f * (b - a), span)
        rgb.append(q + (2 * r > span or (2 * r == span and q % 2)))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def render_svg(cm: ChamberMap) -> str:
    """Deterministic SVG: filled chambers, exact density labels, vertex dots."""
    pts = cm.vertex_set.points
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    (lx, hx), (ly, hy) = (min(xs), max(xs)), (min(ys), max(ys))
    x0, x1 = lx - (hx - lx) / 20, hx + (hx - lx) / 20  # a margin of 5% on each side
    y0, y1 = ly - (hy - ly) / 20, hy + (hy - ly) / 20
    (x0n, x0d), (y1n, y1d) = x0.as_integer_ratio(), y1.as_integer_ratio()

    def sx(x, w):  # user units right of x0 at abscissa x/w
        return _fixed(_SVG_SCALE * (x * x0d - x0n * w), w * x0d)

    def sy(y, w):  # user units below y1 at ordinate y/w
        return _fixed(_SVG_SCALE * (y1n * w - y * y1d), w * y1d)

    view_w = sx(*x1.as_integer_ratio())
    view_h = sy(*y0.as_integer_ratio())
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {view_w} {view_h}">',
    ]
    numerators, _ = integer_vector(ch.density for ch in cm.chambers if ch.density is not None)
    lo = min(numerators, default=0)
    span = max(numerators, default=0) - lo
    offsets = (n - lo for n in numerators)
    coords = {}  # each distinct polygon vertex, formatted once
    for ch in cm.chambers:
        for w, x, y in ch.vertices:
            if (w, x, y) not in coords:
                coords[w, x, y] = f"{sx(x, w)},{sy(y, w)}"
        points = " ".join(coords[v] for v in ch.vertices)
        fill = "none" if ch.density is None else _color(next(offsets), span)
        out.append(
            f'  <polygon points="{points}" fill="{fill}" stroke="#333333" stroke-width="1"/>'
        )
    for ch in cm.chambers:
        if ch.density is not None:
            x, y = ch.point
            out.append(
                f'  <text x="{sx(*x.as_integer_ratio())}" y="{sy(*y.as_integer_ratio())}" '
                f'font-size="14" text-anchor="middle" fill="#000000">{ch.density}</text>'
            )
    for i, (w, x, y) in enumerate(map(homogeneous, pts)):
        out.append(f'  <circle cx="{sx(x, w)}" cy="{sy(y, w)}" r="3" fill="#000000"/>')
        out.append(
            f'  <text x="{sx(x, w)}" y="{sy(y, w)}" dx="5" dy="-5" font-size="12" '
            f'fill="#000000">v{i + 1}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(cm: ChamberMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(cm))
