"""Traced-run recorder: spans around every public function of the layers.

``install`` wraps each public function of the seven layer modules and rebinds
the wrapper at every binding site, so module attributes, intra-module calls
(which look the name up in the module globals at call time) and ``from``
imports such as ``cycleclass.component_containing``, ``realcurve.isolate_real_roots``
and ``qform.sign_at`` all pass through it.  ``UPoly.eval_at`` and the sign
helpers are only counted: they run millions of times and a span each would
cost more than the work they do.

Each span measures its wall time and subtracts the time of the spans it
contains, giving self time.  Spans are folded into per-function totals as they
close, in memory; nothing is written until the run ends.  A run holds millions
of spans, so keeping each one would make the traced process far larger than
the untraced one it is compared against.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "numeric", "abgrp", "qform", "mwk", "realcurve", "cycleclass")

COUNT_ONLY = {"numeric.sign_of", "numeric.same_sign"}


class Deadline(BaseException):
    """Raised by the per-request alarm.  A BaseException, so that no
    ``except Exception`` inside the package can swallow it."""


class FunctionStats:
    __slots__ = ("calls", "self", "errors", "timeouts")

    def __init__(self):
        self.calls = 0
        self.self = 0.0
        self.errors = 0
        self.timeouts = 0


class Recorder:
    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        self.stack: list[list] = []          # [name, child time] per open span
        self.top_total = 0.0                 # time inside outermost spans
        self.observed: dict[str, float] = {}

    def charge_timeout(self) -> str:
        """Charge a fired deadline to the innermost open span."""
        name = self.stack[-1][0] if self.stack else "bench"
        self.stats.setdefault(name, FunctionStats()).timeouts += 1
        return name

    def span(self, name: str, fn, observe=None):
        stats = self.stats.setdefault(name, FunctionStats())
        stack = self.stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Deadline:
                raise
            except BaseException:
                stats.errors += 1
                raise
            finally:
                took = clock() - start
                # pops a child frame too, should a deadline have left one
                while stack.pop() is not frame:
                    pass
                if stack:
                    stack[-1][1] += took
                else:
                    self.top_total += took
                stats.calls += 1
                stats.self += took - frame[1]
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        stats = self.stats.setdefault(name, FunctionStats())

        def wrapper(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def bump(self, key: str, by: float = 1) -> None:
        self.observed[key] = self.observed.get(key, 0) + by

    def peak(self, key: str, value: float) -> None:
        self.observed[key] = max(self.observed.get(key, 0), value)


# --- observations on returned values -----------------------------------------------

def _snf_bits(rec: Recorder, snf) -> None:
    rec.peak("abgrp.snf.peak_bits",
             max((abs(x).bit_length() for m in (snf.d, snf.u, snf.v) for row in m for x in row),
                 default=0))


def _witness_outcomes(rec: Recorder, certs) -> None:
    rec.bump("cycleclass.witness.circles", len(certs))
    rec.bump("cycleclass.witness.exact", sum(1 for c in certs if c.status == "exact"))


def _membership(rec: Recorder, answer) -> None:
    rec.bump("qform.membership.answers")
    rec.bump("qform.membership.unknown", answer.value == "unknown")


def _comparison(rec: Recorder, answer) -> None:
    rec.bump("mwk.compare.answers")
    rec.bump("mwk.compare.indistinguishable", answer.value == "indistinguishable")


OBSERVERS = {
    "abgrp.smith_normal_form": _snf_bits,
    "cycleclass.gamma_top_witness_search": _witness_outcomes,
    "qform.in_fundamental_power": _membership,
    "mwk.compare": _comparison,
}


def install(rec: Recorder) -> None:
    modules = [importlib.import_module(f"realcycle.{name}") for name in LAYERS]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in COUNT_ONLY:
                wrappers[obj] = rec.counter(name, obj)
            else:
                wrappers[obj] = rec.span(name, obj, OBSERVERS.get(name))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    numeric = modules[LAYERS.index("numeric")]
    numeric.UPoly.eval_at = rec.counter("numeric.UPoly.eval_at", numeric.UPoly.eval_at)


# --- per-layer metrics --------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, as name -> (value, unit)."""
    st = rec.stats
    obs = rec.observed

    def get(name):
        return st.get(name) or FunctionStats()

    def self_s(*names):
        return sum(get(n).self for n in names)

    out = {
        "numeric.isolate.self_s": (self_s("numeric.isolate_real_roots"), "s"),
        "numeric.sturm.calls": (get("numeric.sturm_sequence").calls, "count"),
        "numeric.sign_at.calls": (get("numeric.sign_at").calls, "count"),
        "numeric.sign_at.self_s": (self_s("numeric.sign_at"), "s"),
        "numeric.eval.calls": (get("numeric.UPoly.eval_at").calls, "count"),
        "abgrp.snf.calls": (get("abgrp.smith_normal_form").calls, "count"),
        "abgrp.snf.self_s": (self_s("abgrp.smith_normal_form"), "s"),
        "abgrp.snf.peak_bits": (obs.get("abgrp.snf.peak_bits", 0), "bits"),
        "abgrp.snf.timeouts": (get("abgrp.smith_normal_form").timeouts, "count"),
        "abgrp.lattices_equal.self_s": (self_s("abgrp.lattices_equal"), "s"),
        "abgrp.lattice_basis.self_s": (self_s("abgrp.lattice_basis"), "s"),
        "realcurve.components.self_s": (self_s("realcurve.real_components"), "s"),
        "realcurve.locate.calls": (get("realcurve.component_containing").calls, "count"),
        "realcurve.locate.self_s": (self_s("realcurve.component_containing"), "s"),
        "cycleclass.rational_roots.self_s": (self_s("cycleclass.rational_roots"), "s"),
        "cycleclass.rational_roots.timeouts": (get("cycleclass.rational_roots").timeouts, "count"),
        "cycleclass.witness.self_s": (self_s("cycleclass.gamma_top_witness_search"), "s"),
        "cycleclass.witness.timeouts": (get("cycleclass.gamma_top_witness_search").timeouts, "count"),
        "cycleclass.witness.exact_ratio": (
            _ratio(obs.get("cycleclass.witness.exact", 0), obs.get("cycleclass.witness.circles", 0)),
            "ratio"),
        "cycleclass.gamma0.self_s": (self_s("cycleclass.gamma0_image"), "s"),
        "qform.signature.calls": (get("qform.signature").calls, "count"),
        "qform.signature.self_s": (self_s("qform.signature"), "s"),
        "qform.discriminant.self_s": (self_s("qform.discriminant"), "s"),
        "qform.membership.unknown_ratio": (
            _ratio(obs.get("qform.membership.unknown", 0), obs.get("qform.membership.answers", 0)),
            "ratio"),
        "mwk.compare.indistinguishable_ratio": (
            _ratio(obs.get("mwk.compare.indistinguishable", 0), obs.get("mwk.compare.answers", 0)),
            "ratio"),
        "cli.parse.self_s": (self_s("cli.parse_poly", "cli.parse_curve_spec", "cli.parse_twist_spec"), "s"),
    }
    for layer in LAYERS:
        mine = [s for n, s in st.items() if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = (sum(s.self for s in mine), "s")
        out[f"{layer}.errors"] = (sum(s.errors for s in mine), "count")
        out[f"{layer}.timeouts"] = (sum(s.timeouts for s in mine), "count")
    return out
