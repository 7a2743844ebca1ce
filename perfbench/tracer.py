"""Per-layer spans and exact counts, recorded from outside the library.

`Tracer.install` replaces each traced function with a wrapper at every
`polymom` module that binds it (and each traced method on its class), so a
call is seen whichever module it goes through.  A layer's self time is its
spans' wall time minus the wall time of the layer spans they enclose; the
`poly.mul` kernel is timed on its own and also left in its caller's self
time (see TRACED).  Counts are exact and repeat from run to run on the
same seed.  A traced name that the code no longer has is recorded as
absent; its metrics read 0.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from math import comb
from time import perf_counter

# How a traced name is recorded:
#   SPAN    timed; its self time excludes the SPANs it encloses.
#   KERNEL  timed, but transparent: its time also stays in the self time of
#           the SPAN that called it, so each pipeline layer keeps the kernel
#           work it asked for.
#   COUNT   calls only.
SPAN, KERNEL, COUNT = "span", "kernel", "count"

# (layer, "module:function" or "module:Class.method", how).  A function is
# replaced at every polymom module that binds it, a method on its class.
TRACED = (
    ("inverse.product_matrix", "polymom.inverse:product_matrix", SPAN),
    ("inverse.recover_numerator", "polymom.inverse:recover_numerator", SPAN),
    ("inverse.select_minor", "polymom.inverse:select_minor", SPAN),
    ("linalg.solve", "polymom.linalg:solve", SPAN),
    ("linalg.det", "polymom.linalg:det", SPAN),
    ("linalg.rank", "polymom.linalg:rank", COUNT),
    ("geometry.classify", "polymom.geometry:classify", SPAN),
    ("chambers.build_chambers", "polymom.chambers:build_chambers", SPAN),
    ("chambers.chamber_densities", "polymom.chambers:chamber_densities", SPAN),
    ("chambers.render_svg", "polymom.chambers:render_svg", SPAN),
    ("genfunc.measure_genfunc", "polymom.genfunc:measure_genfunc", SPAN),
    ("genfunc.cancel", "polymom.genfunc:RatFun.cancel", SPAN),
    ("genfunc.divide_linear", "polymom.genfunc:divide_linear", COUNT),
    ("genfunc.taylor", "polymom.genfunc:taylor", SPAN),
    ("genfunc.series_to_moments", "polymom.genfunc:series_to_moments", SPAN),
    ("oracle.measure_moments", "polymom.oracle:measure_moments", SPAN),
    ("poly.mul", "polymom.poly:Poly.__mul__", KERNEL),
    ("poly.construct", "polymom.poly:Poly.__init__", COUNT),
    # JSON file I/O is split between the CLI's file helpers and jsonio.
    ("jsonio.load", "polymom.cli:_load_json", SPAN),
    ("jsonio.load", "polymom.jsonio:*_from_json", SPAN),
    ("jsonio.dump", "polymom.cli:_write_json", SPAN),
    ("jsonio.dump", "polymom.jsonio:*_to_json", SPAN),
)

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    ("inverse.product_matrix.self_s", "s"),
    ("inverse.product_matrix.calls", "count"),
    ("inverse.product_matrix.cols", "count"),
    ("inverse.product_matrix.max_entry_bits", "bits"),
    ("inverse.recover_numerator.self_s", "s"),
    ("inverse.recover_numerator.terms", "count"),
    ("linalg.solve.self_s", "s"),
    ("linalg.solve.max_bits", "bits"),
    ("inverse.select_minor.self_s", "s"),
    ("inverse.select_minor.columns_total", "count"),
    ("inverse.select_minor.columns_chosen", "count"),
    ("linalg.det.self_s", "s"),
    ("linalg.det.calls", "count"),
    ("geometry.classify.self_s", "s"),
    ("geometry.classify.calls", "count"),
    ("linalg.rank.calls", "count"),
    ("chambers.build_chambers.self_s", "s"),
    ("chambers.build_chambers.lines", "count"),
    ("chambers.build_chambers.cells", "count"),
    ("chambers.chamber_densities.self_s", "s"),
    ("chambers.render_svg.self_s", "s"),
    ("chambers.svg_bytes", "bytes"),
    ("genfunc.taylor.self_s", "s"),
    ("genfunc.taylor.calls", "count"),
    ("genfunc.taylor.terms_out", "count"),
    ("genfunc.taylor.max_coef_bits", "bits"),
    ("genfunc.series_to_moments.self_s", "s"),
    ("genfunc.measure_genfunc.self_s", "s"),
    ("genfunc.cancel.self_s", "s"),
    ("genfunc.cancel.forms_in", "count"),
    ("genfunc.cancel.forms_cancelled", "count"),
    ("genfunc.divide_linear.calls", "count"),
    ("oracle.measure_moments.self_s", "s"),
    ("oracle.measure_moments.calls", "count"),
    ("poly.mul.calls", "count"),
    ("poly.mul.term_products", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.construct.calls", "count"),
    ("jsonio.load.self_s", "s"),
    ("jsonio.dump.self_s", "s"),
    ("jsonio.dump.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _terms(p):
    """The coefficient dict of a Poly, or of the Poly inside a Series."""
    return getattr(p, "poly", p).terms


# Counters read a span's arguments and result: (tracer, args, result).


def _product_matrix(t, args, m):
    t.add("inverse.product_matrix.cols", m.cols)
    t.peak("inverse.product_matrix.max_entry_bits", max(map(_bits, m.entries), default=0))


def _recover_numerator(t, args, p):
    t.add("inverse.recover_numerator.terms", len(_terms(p)))


def _solve(t, args, x):
    t.peak("linalg.solve.max_bits", max(map(_bits, x), default=0))


def _select_minor(t, args, basis):
    vs = args[0]
    t.add("inverse.select_minor.columns_total", comb(len(vs), len(vs) - vs.dim - 1))
    t.add("inverse.select_minor.columns_chosen", len(basis.columns))


def _build_chambers(t, args, cm):
    t.add("chambers.build_chambers.lines", len(cm.lines))
    t.add("chambers.build_chambers.cells", len(cm.chambers))


def _render_svg(t, args, text):
    t.add("chambers.svg_bytes", len(text.encode("utf-8")))


def _taylor(t, args, series):
    terms = _terms(series)
    t.add("genfunc.taylor.terms_out", len(terms))
    t.peak("genfunc.taylor.max_coef_bits", max(map(_bits, terms.values()), default=0))


def _cancel(t, args, f):
    before = len(args[0].denominator)
    t.add("genfunc.cancel.forms_in", before)
    t.add("genfunc.cancel.forms_cancelled", before - len(f.denominator))


def _mul(t, args, product):
    a, b = args
    t.add("poly.mul.term_products", len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1))


COUNTERS = {
    "inverse.product_matrix": _product_matrix,
    "inverse.recover_numerator": _recover_numerator,
    "linalg.solve": _solve,
    "inverse.select_minor": _select_minor,
    "chambers.build_chambers": _build_chambers,
    "chambers.render_svg": _render_svg,
    "genfunc.taylor": _taylor,
    "genfunc.cancel": _cancel,
    "poly.mul": _mul,
}


class Tracer:
    """Spans and counts for one traced pass; `reset` starts the next pass."""

    def __init__(self):
        self.absent = set()
        self._undo = []
        self._stack = []  # per open SPAN: wall time of the SPANs it encloses
        self.reset()

    def reset(self):
        self.values = defaultdict(int)
        self.values.update({name: 0.0 for name, unit in PER_LAYER if unit == "s"})

    def add(self, name, amount):
        self.values[name] += amount

    def peak(self, name, value):
        self.values[name] = max(self.values[name], value)

    def metrics(self):
        """This pass's value of every per-layer metric but the overhead ratio."""
        return {name: self.values[name] for name, _ in PER_LAYER if name != "trace.overhead_ratio"}

    # --- installing wrappers ------------------------------------------------

    def install(self):
        import polymom.cli  # noqa: F401  (loads every module a CLI call can reach)

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "polymom"]
        for layer, where, how in TRACED:
            module, _, path = where.partition(":")
            cls_name, _, attr = path.rpartition(".")
            owner = sys.modules.get(module)
            if cls_name:
                owner = getattr(owner, cls_name, None)
            names = [attr]
            if attr.startswith("*"):
                names = [name for name in vars(owner) if name.endswith(attr[1:])] if owner else []
            for name in names:
                fn = vars(owner).get(name) if owner is not None else None
                if not callable(fn):
                    self.absent.add(f"{module}:{path}")
                    continue
                wrapper = self._count(layer, fn) if how == COUNT else self._span(layer, fn, how)
                for target in [owner] if cls_name else modules:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, key, wrapper)
                            self._undo.append((target, key, fn))

    def uninstall(self):
        for target, key, fn in reversed(self._undo):
            setattr(target, key, fn)
        self._undo.clear()

    def _count(self, layer, fn):
        name = f"{layer}.calls"

        def wrapper(*args, **kwargs):
            self.values[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, layer, fn, how):
        stack = self._stack
        nested = how == SPAN
        counter = COUNTERS.get(layer)
        self_name, calls_name = f"{layer}.self_s", f"{layer}.calls"

        def wrapper(*args, **kwargs):
            if nested:
                stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                values = self.values
                values[calls_name] += 1
                if nested:
                    values[self_name] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                else:
                    values[self_name] += elapsed
            if counter is not None:
                start = perf_counter()
                try:
                    counter(self, args, result)
                except (AttributeError, TypeError, ValueError):
                    self.absent.add(f"{layer} counts")
                if stack:  # counting is tracer overhead, not the enclosing span's work
                    stack[-1] += perf_counter() - start
            return result

        return wrapper
