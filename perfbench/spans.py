"""Per-layer spans around the calls into each genus0 module, from outside.

The wrappers are installed where the caller looks the name up: a module
function is replaced in every genus0 module that holds it (``cohft``
imports ``ModEliminator``, ``crt_combine`` and friends by name, while
``keelring`` reaches ``linalg.rows_mod`` through the module), and a method
is replaced on its class.  ``intersect._pair_parts`` is left alone:
``cohft._build_sp`` calls its ``__wrapped__`` to bypass the cache, and a
wrapper would change what that attribute returns.

A span's self time is its duration minus the time spent in the spans it
encloses.  A call nested inside a call to the same span counts neither as
a new call nor towards ``total_s``, so recursion is not double counted.
"""

from __future__ import annotations

import sys
import time

# Metrics reported per span: the span name joined with each field.
FIELDS = {
    "cohft.stratum_value": ("calls", "self_s"),
    "cohft.build_sp": ("calls", "self_s"),
    "cohft.greedy_rows": ("calls", "self_s", "rows_in", "rank"),
    "cohft.solve_full_rank": ("calls", "self_s", "total_s"),
    "cohft.wdvv_check": ("calls", "self_s"),
    "cohft.reconstruct": ("total_s",),
    "linalg.rows_mod": ("calls", "self_s"),
    "linalg.feed": ("calls", "rows", "self_s"),
    "linalg.mod_matmul": ("calls", "self_s"),
    "linalg.crt_rr": ("calls", "self_s"),
    "linalg.certify_residual": ("calls", "self_s"),
    "linalg": ("primes_used",),
    "linalg.fraction_rref": ("calls", "self_s"),
    "intersect.pair_kaufmann": ("calls", "self_s"),
    "intersect.pairing_matrix_int": ("total_s",),
    "intersect.integrate": ("calls", "self_s"),
    "keelring.mul": ("calls", "self_s", "max_terms"),
    "keelring.mul_divisor": ("calls", "computed", "hit_ratio", "self_s"),
    "keelring.relations": ("calls", "self_s"),
    "keelring.pullback": ("calls", "self_s"),
    "keelring.class_vector": ("calls", "self_s"),
    "taut.kappa": ("calls", "total_s"),
    "taut.pushforward": ("calls", "self_s"),
    "taut.psi_monomial": ("calls", "total_s"),
    "trees.enumerate": ("calls", "self_s"),
    "trees.tree_model": ("calls", "self_s"),
    "cache.load": ("hits",),
}


def unit(metric: str) -> str:
    """Seconds for "*_s", a fraction for hit ratios, else a count."""
    if metric.endswith("_s"):
        return "s"
    return "fraction" if metric.endswith("hit_ratio") else "count"


def layer_metrics(spans: dict) -> dict:
    """Every per-layer metric's value from a traced child's span record."""
    out = {}
    for name, fields in FIELDS.items():
        span = spans.get(name, {})
        for field in fields:
            if field == "hit_ratio":
                calls = span.get("calls", 0)
                value = (calls - span.get("computed", 0)) / calls if calls else 0.0
            else:
                value = span.get(field, 0)
            out[f"{name}.{field}"] = value
    return out


class Tracer:
    def __init__(self):
        self.spans: dict[str, dict] = {}
        self._open: list[float] = []  # time covered by child spans, per open span

    def _span(self, name: str) -> dict:
        return self.spans.setdefault(
            name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "depth": 0}
        )

    def timed(self, name: str, fn, note=None, calls="calls"):
        """Wrap fn in a span; note(span, args, result) adds counters.

        ``calls`` names the field that counts the calls, for a span whose
        "calls" field is counted by a cheaper wrapper elsewhere.
        """
        span = self._span(name)
        span.setdefault(calls, 0)
        stack = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            span["depth"] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                span["depth"] -= 1
                span["self_s"] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if not span["depth"]:
                    span[calls] += 1
                    span["total_s"] += dt
            if note is not None:
                note(span, args, out)
            return out

        return wrapper

    def counted(self, name: str, field: str, fn):
        """Wrap fn so that each call adds one to a counter, with no timing."""
        span = self._span(name)
        span.setdefault(field, 0)

        def wrapper(*args, **kwargs):
            span[field] += 1
            return fn(*args, **kwargs)

        return wrapper

    def report(self) -> dict:
        return {
            name: {k: v for k, v in span.items() if k != "depth"}
            for name, span in self.spans.items()
        }


def _add(field: str, amount):
    def note(span, args, out):
        span[field] = span.get(field, 0) + amount(args, out)

    return note


def _greedy(span, args, out):
    span["rows_in"] = span.get("rows_in", 0) + len(args[0])
    span["rank"] = span.get("rank", 0) + len(out)


def _max_terms(span, args, out):
    span["max_terms"] = max(span.get("max_terms", 0), len(out.terms))


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every genus0 module attribute that holds original."""
    for modname, mod in list(sys.modules.items()):
        if modname == "genus0" or modname.startswith("genus0."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install() -> Tracer:
    """Wrap the calls into every layer; returns the tracer that records them."""
    from genus0 import cache, cohft, intersect, keelring, linalg, taut, trees

    tr = Tracer()
    functions = [
        (cohft, "_stratum_value", "cohft.stratum_value", None),
        (cohft, "_build_sp", "cohft.build_sp", None),
        (cohft, "_greedy_rows", "cohft.greedy_rows", _greedy),
        (cohft, "_solve_full_rank", "cohft.solve_full_rank", None),
        (cohft, "wdvv_check", "cohft.wdvv_check", None),
        (cohft, "_reconstruct_all", "cohft.reconstruct", None),
        (linalg, "rows_mod", "linalg.rows_mod", None),
        (linalg, "mod_matmul", "linalg.mod_matmul", None),
        (linalg, "crt_combine", "linalg.crt_rr", None),
        (linalg, "rational_reconstruct", "linalg.crt_rr", None),
        (linalg, "_certify_residual", "linalg.certify_residual", None),
        (intersect, "pair_kaufmann", "intersect.pair_kaufmann", None),
        (intersect, "pairing_matrix_int", "intersect.pairing_matrix_int", None),
        (intersect, "integrate", "intersect.integrate", None),
        (keelring, "relations_of_degree", "keelring.relations", None),
        (keelring, "pullback_to_divisor", "keelring.pullback", None),
        (keelring, "class_vector", "keelring.class_vector", None),
        (taut, "kappa", "taut.kappa", None),
        (taut, "pushforward_forget", "taut.pushforward", None),
        (taut, "psi_monomial", "taut.psi_monomial", None),
        (trees, "enumerate_stable_trees", "trees.enumerate", None),
        (trees, "_tree_model", "trees.tree_model", None),
        (cache, "load", "cache.load", _add("hits", lambda a, o: o is not None)),
    ]
    for mod, attr, name, note in functions:
        original = getattr(mod, attr)
        _replace_everywhere(original, tr.timed(name, original, note))

    methods = [
        (keelring.Ring, "mul", "keelring.mul", _max_terms),
        (linalg.ModEliminator, "feed", "linalg.feed", _add("rows", lambda a, o: len(a[1]))),
        (linalg.FractionRREF, "add", "linalg.fraction_rref", None),
        (linalg.FractionRREF, "reduce", "linalg.fraction_rref", None),
    ]
    for cls, attr, name, note in methods:
        setattr(cls, attr, tr.timed(name, getattr(cls, attr), note))

    # one eliminator per (system, prime) attempt
    cls = linalg.ModEliminator
    cls.__init__ = tr.counted("linalg", "primes_used", cls.__init__)
    # Divisor products are looked up 17 M times on the n <= 7 psi lattice,
    # and a timed span on every lookup nearly doubled that run.  So lookups
    # are only counted, and the span times the products the memo did not
    # hold: its self_s is the cost of computing them.
    cls = keelring.Ring
    cls.mul_divisor_raw = tr.counted("keelring.mul_divisor", "calls", cls.mul_divisor_raw)
    cls._mul_divisor_compute = tr.timed(
        "keelring.mul_divisor", cls._mul_divisor_compute, calls="computed"
    )
    return tr
