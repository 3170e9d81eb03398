"""Spans around katailab's public functions, for the traced run only.

`Tracer.install()` replaces the public module functions and a few public
methods of every katailab module with wrappers that record one span per
call: (name, start, end, parent, size).  Names a module imported from
another one (``checkpoint_sums`` in ``meanvalues``, ``e_of`` in
``equidist``, ...) are patched there too.  Spans stay in memory; the child
writes them out when its batch ends.

The double-double arithmetic primitives (``ddmath.add``, ``ddmath.mul``,
...) stay unwrapped, so the self time of a kernel such as ``ddmath.exp``
includes the arithmetic it is made of.  Per-element helpers
(``factorize``, ``root_of_unity``) stay unwrapped too, because a span per
element would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

MODULES = ("sieve", "functions", "levelsets", "meanvalues", "orthogonality",
           "equidist", "ddmath", "constants", "summation", "reports", "cli")
DD_KERNELS = ("exp", "log", "pow_dd", "log_gamma", "sqrt")
PER_ELEMENT = {"sieve.factorize", "functions.root_of_unity"}
METHODS = {
    ("sieve", "FactorSieve"): ("build", "load", "save", "primes"),
    ("functions", "ArithmeticFunction"): ("values_upto",),
    ("equidist", "HardyFunction"): ("fractional_parts", "dilated_difference_parts",
                                    "floor_values"),
    ("constants", "Constant"): ("frac_mul",),
}
TABLE_NAMES = ("div", "big_omega", "small_omega", "mobius", "squarefree",
               "prime_power_part", "sigma", "tau", "phi")


def _length(args, out, before):
    return len(out)


# spans that also record the size of what they return
SIZES = {
    "levelsets.members_upto": _length,
    "levelsets.first_members": _length,
    "reports.render_json": _length,
    "reports.render_csv": _length,
    "summation._chunks": _length,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, size or None]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, size=None, before=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span belongs to the span that is
            # waiting for it on the main thread
            parent = self._main_stack[-1] if self._main_stack else -1
        rec = [name, 0.0, 0.0, parent, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if size is not None:
                rec[4] = size(args, out, before)
            return out
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, size)

        return wrapper

    def wrap_table(self, fn, fixed_name=None):
        """FactorSieve.table / _div_table: one span name per table, size = bytes built."""

        def size(args, out, before):
            return int(out.nbytes) if before else None

        @functools.wraps(fn)
        def wrapper(sieve, *args):
            name = fixed_name or args[0]
            built = name not in getattr(sieve, "_tables", ())
            return self.call(f"sieve.table:{name}", fn, (sieve, *args), {}, size, built)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the katailab functions and methods; a name the library no
        longer has is skipped.  Returns the number of names patched."""
        mods = {m: importlib.import_module(f"katailab.{m}") for m in MODULES}
        patched = 0
        replace = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in PER_ELEMENT:
                    continue
                if short == "ddmath" and attr not in DD_KERNELS:
                    continue
                replace[obj] = self.wrap(name, obj)
        chunks = getattr(mods["summation"], "_chunks", None)
        if chunks is not None:
            replace[chunks] = self.wrap("summation._chunks", chunks)

        for (short, cls_name), methods in METHODS.items():
            cls = getattr(mods[short], cls_name)
            for attr in methods:
                patched += _patch_method(cls, attr, lambda f, a=attr, s=short:
                                         self.wrap(f"{s}.{a}", f))
        sieve_cls = mods["sieve"].FactorSieve
        patched += _patch_method(sieve_cls, "table", self.wrap_table)
        patched += _patch_method(sieve_cls, "_div_table", lambda f: self.wrap_table(f, "div"))
        for cls in _subclasses(mods["levelsets"].LevelSet):
            patched += _patch_method(cls, "members_upto",
                                     lambda f: self.wrap("levelsets.members_upto", f))

        # every module that imported a wrapped function by name gets the wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "katailab" and not mod_name.startswith("katailab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])
                    patched += 1
        return patched

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Duration minus the part of it covered by child spans (any thread)."""
        kids = defaultdict(list)
        for s in self.spans:
            if s[3] >= 0:
                kids[s[3]].append((s[1], s[2]))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for a, b in sorted(kids.get(i, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(end - start - covered)
        return out


def _patch_method(cls, attr, make_wrapper) -> int:
    """Replace cls.attr (defined on cls itself) by make_wrapper(function)."""
    raw = vars(cls).get(attr)
    if raw is None:
        return 0
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make_wrapper(raw.__func__)))
    else:
        setattr(cls, attr, make_wrapper(raw))
    return 1


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


# -- per-layer metrics ----------------------------------------------------------

SELF_TIME = {
    "sieve.build_s": ("sieve.build",),
    "sieve.save_s": ("sieve.save",),
    "sieve.load_s": ("sieve.load",),
    "functions.values_upto_s": ("functions.values_upto",),
    "functions.bulk_values_s": ("functions.bulk_values",),
    "summation.checkpoint_sums_s": ("summation.checkpoint_sums",),
    "meanvalues.empirical_mean_s": ("meanvalues.empirical_mean",),
    "meanvalues.euler_product_s": ("meanvalues.euler_product_mean",),
    "meanvalues.series_s": ("meanvalues.halasz_series", "meanvalues.three_series"),
    "meanvalues.cdf_s": ("meanvalues.empirical_cdf",),
    "levelsets.members_upto_s": ("levelsets.members_upto",),
    "levelsets.empirical_density_s": ("levelsets.empirical_density",),
    "levelsets.first_members_s": ("levelsets.first_members",),
    "orthogonality.katai_correlation_s": ("orthogonality.katai_correlation",),
    "orthogonality.orthogonality_sum_s": ("orthogonality.orthogonality_sum",),
    "orthogonality.tk_variance_s": ("orthogonality.turan_kubilius_variance",),
    "equidist.fractional_parts_s": ("equidist.fractional_parts",
                                    "equidist.fractional_parts_along"),
    "equidist.dilated_parts_s": ("equidist.dilated_difference_parts",),
    "equidist.floor_values_s": ("equidist.floor_values",),
    "equidist.star_discrepancy_s": ("equidist.star_discrepancy",),
    "equidist.weyl_sum_s": ("equidist.weyl_sum",),
    "reports.render_s": ("reports.render_json", "reports.render_csv"),
    "reports.write_s": ("reports.write_json", "reports.write_csv"),
}
for _k in DD_KERNELS:
    SELF_TIME[f"ddmath.{_k}_self_s"] = (f"ddmath.{_k}",)
for _t in TABLE_NAMES:
    SELF_TIME[f"sieve.table_s.{_t}"] = (f"sieve.table:{_t}",)
SETUP_ONLY = ("sieve.build_s", "sieve.save_s")


def layer_metrics(tracer: Tracer, ready_at: float) -> dict:
    """Per-layer values for one child: setup metrics from spans that began
    before the sieve was ready, every other metric from the batch after it."""
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def total(names, setup):
        return sum(selfs[i] for n in names for i in by_name.get(n, ())
                   if (spans[i][1] < ready_at) == setup)

    def batch(name):
        return [i for i in by_name.get(name, ()) if spans[i][1] >= ready_at]

    out = {m: total(names, m in SETUP_ONLY) for m, names in SELF_TIME.items()}
    tables = [i for n, ids in by_name.items() if n.startswith("sieve.table:")
              for i in ids if spans[i][1] >= ready_at]
    built = [i for i in tables if spans[i][4] is not None]
    out["sieve.table_s"] = sum(selfs[i] for i in tables)
    out["sieve.table_calls"] = len(tables)
    out["sieve.table_builds"] = len(built)
    out["sieve.table_bytes"] = sum(spans[i][4] for i in built)
    out["summation.chunks"] = sum(spans[i][4] for i in batch("summation._chunks"))
    out["orthogonality.correlation_calls"] = len(batch("orthogonality.katai_correlation"))

    def under(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    returned = sum(spans[i][4] for i in batch("levelsets.first_members"))
    scanned = sum(spans[i][4] for i in batch("levelsets.members_upto")
                  if under(i, "levelsets.first_members"))
    out["levelsets.first_members_yield"] = returned / scanned if scanned else 0.0
    renders = batch("reports.render_json") + batch("reports.render_csv")
    out["reports.bytes_rendered"] = sum(spans[i][4] for i in renders)
    out["reports.bytes_written"] = sum(
        spans[i][4] for i in renders
        if under(i, "reports.write_json") or under(i, "reports.write_csv"))
    return out
