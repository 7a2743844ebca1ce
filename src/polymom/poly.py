"""Sparse polynomials over Fractions; truncated power series and moment tables as integer pairs.

Terms are stored as a dict mapping exponent tuples to nonzero Fraction
coefficients.  The canonical term order used for iteration, serialization and
matrix building is graded lexicographic: ascending total degree, and within a
degree descending lexicographic exponents, so that for two variables the
order reads 1, u1, u2, u1^2, u1*u2, u2^2.

`Poly(dim, terms)` and `MomentTable(dim, order, moments)` check what they are
given, for input: each exponent or index entry by `value.integer` and each
coefficient or moment by `linalg.rat`.  Results built in the package go through
the unchecked `Poly._of` and `MomentTable._of`.  `Poly` has no arithmetic:
`FormKernel` multiplies and divides by vertex forms below a degree, and
divides exactly by direction forms, in integers, and `form_kernel` builds one
kernel per (dim, degree) for every caller; a `Series` is one kernel's pair, and so
is a `MomentTable`, which holds the moments m_I to an order, so tables compare as
integers.  `_normalizer` is the factor (|I|+d)!/prod(i_j!) between a moment and its
coefficient in the normalized generating series; `normalizers` holds one row of them
per (dim, order), beside the kernel's rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, islice, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import itemgetter, mul
from types import MappingProxyType

from .errors import DimensionError
from .linalg import integer_vector, rat
from .value import Value, integer

# The coefficient of an absent term, shared rather than built on every read.
ZERO = Fraction(0)


def grlex_key(exponents):
    """Sort key realizing the canonical graded-lex order."""
    return (sum(exponents), tuple(-e for e in exponents))


def monomials_of_degree(dim, degree):
    """All exponent tuples of the given total degree, one at a time, in canonical
    order: variable multisets in lexicographic order count out to exactly that."""
    dim, degree = integer(dim, "dimension"), integer(degree, "degree")
    return (tuple(map(combo.count, range(dim))) for combo in combinations_with_replacement(range(dim), degree))


def monomials_upto(dim, degree):
    """All exponent tuples of total degree <= degree, in canonical order."""
    return [e for k in range(integer(degree, "degree") + 1) for e in monomials_of_degree(dim, k)]


class Poly(Value):
    """Immutable sparse polynomial in `dim` variables over Fraction."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        dim, clean = integer(dim, "polynomial dimension"), {}
        for exps, coef in (terms or {}).items():
            try:
                exps = tuple(integer(e, "exponent", signed=True) for e in exps)
            except TypeError:
                raise DimensionError(f"non-integer exponent in {exps}") from None
            if len(exps) != dim or any(e < 0 for e in exps):
                raise DimensionError(f"bad exponent tuple {exps} for dim {dim}")
            coef = rat(coef)
            if coef != 0:
                clean[exps] = clean.get(exps, ZERO) + coef
                if clean[exps] == 0:
                    del clean[exps]
        self._fill(dim, clean)

    @classmethod
    def _of(cls, dim, terms) -> "Poly":
        """Unchecked constructor for results built here: a dict of integer exponent
        tuples of length `dim` to nonzero Fractions, kept as it is given."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def constant(cls, dim, value) -> "Poly":
        return cls(dim, {(0,) * dim: rat(value)})

    @classmethod
    def monomial(cls, dim, exponents, coef=1) -> "Poly":
        return cls(dim, {tuple(exponents): rat(coef)})

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def coefficient(self, exponents) -> Fraction:
        return self.terms.get(tuple(exponents), ZERO)

    def sorted_terms(self):
        """Terms as (exponents, coefficient) pairs in canonical order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=grlex_key)]

    __hash__ = None

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for k, p in enumerate(e):
                if p == 1:
                    factors.append(f"u{k + 1}")
                elif p > 1:
                    factors.append(f"u{k + 1}^{p}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = str(abs(c)) + "*" + "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


class Series(Value):
    """Every coefficient up to the order, as a `MomentTable` holds every moment: the `form_kernel(dim,
    order)` pair, scale > 0 and no common factor, so equal series have equal fields; `poly` is formed on read."""

    __slots__ = ("dim", "order", "vector", "scale")

    def __init__(self, poly: Poly, order: int):
        order = integer(order, "series order")
        self._fill(poly.dim, order, *form_kernel(poly.dim, order).pair(poly))

    @classmethod
    def _of(cls, dim, order, vector, scale) -> "Series":
        """Unchecked constructor for a kernel pair built here, with scale > 0: reduced by its gcd."""
        g = gcd(scale, *vector)
        s = object.__new__(cls)
        s._fill(dim, order, [x // g for x in vector], scale // g)
        return s

    __hash__ = None

    @property
    def poly(self) -> Poly:
        return form_kernel(self.dim, self.order).poly((self.vector, self.scale))

    def coefficient(self, exponents) -> Fraction:
        where, e = form_kernel(self.dim, self.order).where, tuple(exponents)
        try:
            row = where[e]
        except (KeyError, TypeError):  # no row, or an entry that cannot key one
            return ZERO
        return Fraction(self.vector[row], self.scale)

    def truncate(self, order) -> "Series":
        """The series to a lower order: the prefix of the pair, on the lower kernel's rows."""
        order = integer(order, "series order")
        if order > self.order:
            raise DimensionError(f"cannot extend a series from order {self.order} to {order}")
        return Series._of(self.dim, order, self.vector[: comb(order + self.dim, self.dim)], self.scale)

    def __repr__(self):
        return f"Series({self.poly}, order={self.order})"

    def __reduce__(self):
        return Series, (self.poly, self.order)


class FormKernel:
    """Integer products and series quotients by vertex forms below a degree, and exact
    quotients by direction forms: a polynomial is an (integer vector, scale) pair over the
    `rows`, and the form of a vertex v is its `geometry.homogeneous` row (W, W*v), read as
    W - <W*v, u>, the form times W; a direction g is the row (0, g).  `times` and `over` read
    one pair contract: the vector may stop early, its missing rows zero.  `pair` and `poly`
    turn a polynomial into a pair and back.  Get one from `form_kernel`, which builds each
    (dim, degree) once and shares it; `rows`, `degrees`, the degree of each row, `sizes`, the
    length of a product whose input stops at each row, and `up` are tuples and `where`, the
    row of each exponent tuple, is a read-only view, so no caller can alter them."""

    __slots__ = ("dim", "degree", "rows", "degrees", "sizes", "where", "up")

    def __init__(self, dim, degree):
        self.dim, self.degree, self.rows = dim, degree, tuple(monomials_upto(dim, degree))
        self.degrees = tuple(map(sum, self.rows))
        self.sizes = tuple(comb(min(g + 1, degree) + dim, dim) for g in self.degrees)
        at = {e: r for r, e in enumerate(self.rows)}
        self.where = MappingProxyType(at)
        # up[v][q] is the row of u_v times the monomial of row q, for the rows below the degree
        below = [e for e in self.rows if sum(e) < degree]
        self.up = tuple(tuple(at[e[:v] + (e[v] + 1,) + e[v + 1 :]] for e in below) for v in range(dim))

    def pair(self, p: Poly):
        """The `integer_vector` of the polynomial's coefficients on the rows, so its terms above
        the kernel's degree drop; `poly` reads the pair back."""
        return integer_vector(p.terms.get(e, ZERO) for e in self.rows)

    def poly(self, pair) -> Poly:
        """The polynomial a pair stands for."""
        vector, scale = pair
        return Poly._of(self.dim, {e: Fraction(x, scale) for e, x in zip(self.rows, vector) if x})

    def times(self, pair, form):
        """The product with the form on its own rows: the vector may stop early, as in `over`, and
        the product stops one degree past it, capped at the kernel's, `sizes` long.  The scale
        gains W, and nothing for a direction row (0, g)."""
        (vector, scale), (w, *wv) = pair, form
        out = [w * x for x in vector]
        out += [0] * (self.sizes[len(vector) - 1] - len(out))
        for up_v, c in zip(self.up, wv):
            if c:
                for q, x in zip(up_v, vector):
                    out[q] -= c * x
        return out, scale * (w or 1)

    def over(self, pair, *forms):
        """The series quotient by every form at once, over lambda, the lcm of their W; the pair's
        vector may stop early, its missing rows zero.  On F(lambda u) the pair's row of degree j
        is times lambda^j, and each form's recurrence G_j = H_j + <lambda v, u> G_(j-1) runs in
        place over ascending rows, where lambda v = (lambda/W)(W v) is an integer row, so nothing
        divides; row j then takes lambda^(degree-j), and the scale gains lambda^degree."""
        (vector, scale), lam = pair, lcm(*map(itemgetter(0), forms))
        if lam > 1:
            powers = list(accumulate(repeat(lam, self.degree), mul, initial=1))
            vector = map(mul, vector, map(powers.__getitem__, self.degrees))
        out = list(vector)
        out += [0] * (len(self.rows) - len(out))
        ups = tuple(zip(*self.up))
        for w, *wv in forms:
            steps = wv if w == lam else list(map(mul, wv, repeat(lam // w)))
            # a list iterator reads each row when it reaches it, after every row below has added to it
            for x, rows in zip(out, ups):
                for r, c in zip(rows, steps):
                    out[r] += c * x
        if lam == 1:
            return out, scale
        powers.reverse()
        return list(map(mul, out, map(powers.__getitem__, self.degrees))), scale * powers[0]

    def divide(self, pair, form):
        """The exact quotient by a form with W = 0, the -<g, u> that `times` multiplies by, as a
        pair on the rows below the degree; None when a remainder is left.  From the top power
        of u_k down, g_k = a the entry of least nonzero size: the row of u_k times the monomial
        of row q gives the quotient's row q, and takes that multiple of the form away: the row
        itself to zero, the rest one power of u_k lower.  The scale gains a^degree, so a row at
        power t of u_k stays a multiple of a^t and divides exactly.  What is left is the
        remainder, at power 0."""
        (vector, scale), (_, *g) = pair, form
        k = min((v for v in range(self.dim) if g[v]), key=lambda v: abs(g[v]))
        top = g[k] ** self.degree
        left = [top * x for x in vector]
        quotient = [0] * len(self.up[k])
        for q in sorted(range(len(quotient)), key=lambda q: -self.rows[q][k]):
            carry = left[self.up[k][q]] // g[k]
            quotient[q] = -carry
            for up_v, c in zip(self.up, g):
                if c:
                    left[up_v[q]] -= c * carry
        return None if any(left) else (quotient, scale * top)


@lru_cache(maxsize=32, typed=True)
def form_kernel(dim, degree) -> FormKernel:
    """The `FormKernel` of (dim, degree), built on first use and shared after.  Typed, so a
    degree of 6.0 or True still builds (and fails or not) as it would alone, never reading
    the kernel of 6 or 1."""
    return FormKernel(dim, degree)


@lru_cache(maxsize=32)
def normalizers(dim, order) -> tuple:
    """The `_normalizer` of each row of `form_kernel(dim, order)`, in its order, built on
    first use and shared after."""
    return tuple(_normalizer(e, dim, 0) for e in form_kernel(dim, order).rows)


class MomentTable(Value):
    """All moments m_I with |I| <= order, as a `Series` holds every coefficient: the moments on
    the rows of `form_kernel(dim, order)` over one denominator, scale > 0 and no common factor,
    so equal tables have equal fields; `moments` is formed on read.  `MomentTable(dim, order,
    moments)` is for input: it reads each value by `rat` and each index entry by `integer`,
    names the first index out of range, and checks that the indices are exactly the complete
    table's.  Tables built here go through the unchecked `MomentTable._of`."""

    __slots__ = ("dim", "order", "vector", "scale")

    def __init__(self, dim: int, order: int, moments: dict):
        order = integer(order, "moment order")
        dim, moments = integer(dim, "moment table dimension"), {e: rat(v) for e, v in moments.items()}
        # comb(order + dim, dim) in partial products, which at least double: stop past 10^100 > len(moments)
        n, m, expected, cap = order + dim, min(order, dim), 1, 10**100
        for i in range(1, m + 1):
            expected = expected * (n - m + i) // i
            if expected > cap:
                break
        # name the first fault; distinct indices in range, as many as expected, are the complete table
        read = {}
        for e, v in moments.items():
            entries = tuple(integer(x, "moment index entry", signed=True) for x in e)
            if len(entries) != dim or min(entries, default=0) < 0 or sum(entries) > order:
                raise DimensionError(f"moment index {e} is not in R^{dim} up to order {order}")
            read[entries] = v
        if len(read) != expected:
            message = f"moment table must be complete to order {order}: "
            message += f"{len(read)} of {expected if expected <= cap else 'more than 10^100'} moments"
            # every index is in range, so exactly expected - len(read) are absent: stop at the last
            shown = min(5, expected - len(read))
            # an index in R^dim prints in at least 3*dim characters: list the first absent
            # ones, after ", first missing ", only if the line can stay under 300
            if len(message) + 16 + shown * (3 * dim + 2) < 300:
                indices = (e for j in range(order + 1) for e in monomials_of_degree(dim, j))
                absent = (e for e in indices if e not in read)
                message += f", first missing {list(islice(absent, shown))}"
            raise DimensionError(message)
        self._fill(dim, order, *integer_vector(map(read.__getitem__, form_kernel(dim, order).rows)))

    @classmethod
    def _of(cls, dim, order, vector, scale) -> "MomentTable":
        """Unchecked constructor for moments built here on the kernel's rows, with scale > 0:
        reduced by its gcd."""
        g = gcd(scale, *vector)
        t = object.__new__(cls)
        t._fill(dim, order, [x // g for x in vector], scale // g)
        return t

    __hash__ = None

    @property
    def moments(self) -> dict:
        rows = form_kernel(self.dim, self.order).rows
        return {e: Fraction(x, self.scale) if x else ZERO for e, x in zip(rows, self.vector)}

    def __getitem__(self, index):
        where, index = form_kernel(self.dim, self.order).where, tuple(index)
        try:
            x = self.vector[where[index]]
        except (KeyError, TypeError):  # no row, or an entry that cannot key one
            raise KeyError(index) from None
        return Fraction(x, self.scale) if x else ZERO

    def __repr__(self):
        return f"MomentTable(dim={self.dim}, order={self.order}, moments={self.moments})"

    def __reduce__(self):
        return MomentTable, (self.dim, self.order, self.moments)


def _normalizer(exps, dim, extra) -> int:
    """(|I|+d+extra)!/prod(i_j!), an integer since prod(i_j!) divides |I|!."""
    return factorial(sum(exps) + dim + extra) // prod(map(factorial, exps))
