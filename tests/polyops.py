"""Polynomial arithmetic for the tests' reference computations.

`polymom.Poly` has no ring operators: the library multiplies and divides by
forms in `poly.FormKernel`.  The references multiply, add and truncate term by
term, by the plain definitions, so that they check the kernel rather than share it.
"""

from operator import add

from polymom import Poly


def times(p, q):
    """The product of two polynomials, term by term."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return Poly(p.dim, out)


def drop_above(p, degree):
    """The polynomial's terms of total degree <= degree, term by term."""
    return Poly(p.dim, {e: c for e, c in p.terms.items() if sum(e) <= degree})


def plus(p, q):
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, 0) + c
    return Poly(p.dim, out)


def pairing(vertex):
    """<v, u> as a polynomial."""
    d = len(vertex)
    return Poly(d, {tuple(int(j == k) for j in range(d)): c for k, c in enumerate(vertex)})


def vertex_form(vertex):
    """The vertex form 1 - <v, u> as a polynomial."""
    return plus(Poly.constant(len(vertex), 1), pairing([-c for c in vertex]))


def series_over(p, vertices, degree):
    """The series of p / prod of (1 - <v, u>) over the vertices to the degree, term by term:
    p times each form's geometric series, the sum of <v, u>^j for j <= degree, cut to it."""
    p = drop_above(p, degree)
    for vertex in vertices:
        term = total = Poly.constant(p.dim, 1)
        for _ in range(degree):
            term = times(term, pairing(vertex))
            total = plus(total, term)
        p = drop_above(times(p, total), degree)
    return p
