"""Outside-in tracer: spans around the public entry points of paradiff_lab.

The tracer wraps each listed function in every ``paradiff_lab`` module
namespace that binds it (``apply`` is re-bound by ``from .operators import
apply`` in experiments, pointwise and spaces, so every binding must be
replaced or calls escape), and each listed method on its class.  Spans are
kept in memory as ``(span_id, parent_id, name, start, end)`` tuples and
written once at the end; self times are computed from them afterwards by
:func:`aggregate`.  Counters (calls, computed bytes, repeated keys) are exact
and repeat from run to run for one scenario seed.

No code inside ``paradiff_lab`` is changed; in-program spans are a later
step.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: span name -> (module, function) pairs; the name is the metric prefix.
FUNCTIONS = {
    "lp.block": [("lp", "dyadic_block"), ("lp", "cumulative_block")],
    "symbols.symbol_band": [("symbols", "symbol_band")],
    "operators.apply": [("operators", "apply")],
    "operators.modulated_symbol": [("operators", "modulated_symbol")],
    "operators.modulation_limit": [("operators", "modulation_limit")],
    "operators.para_split": [("operators", "para_split")],
    "operators.support_inclusions": [("operators", "support_inclusions")],
    "operators.spectral_support_bound":
        [("operators", "spectral_support_bound")],
    "operators.compose_multiplier": [("operators", "compose_multiplier")],
    "pointwise.symbol_factor": [("pointwise", "symbol_factor")],
    "pointwise.peetre_max": [("pointwise", "peetre_max")],
    "pointwise.hl_max": [("pointwise", "hl_max")],
    "pointwise.mihlin_bound": [("pointwise", "mihlin_bound")],
    "pointwise.check_factorization": [("pointwise", "check_factorization")],
    "pointwise.paraterm_pointwise_check":
        [("pointwise", "paraterm_pointwise_check")],
    "spaces.space_norm": [("spaces", "space_norm")],
    "spaces.homog_besov_norm": [("spaces", "homog_besov_norm")],
    "spaces.marschall_check": [("spaces", "marschall_check")],
    "spaces.fefferman_stein_check": [("spaces", "fefferman_stein_check")],
}

#: span name -> (module, class, attribute) triples.  ``symbols.partial_ft``
#: wraps the method only: the module-level ``partial_ft`` delegates to it,
#: so wrapping both would count each call twice.
METHODS = {
    "torus.fft": [("torus", "SpectralField", "from_values"),
                  ("torus", "SpectralField", "from_coeffs")],
    "torus.support": [("torus", "SpectralField", "support")],
    "lp.modulation_eval": [("lp", "ModulationFunction", "__call__")],
    "symbols.from_function": [("symbols", "DiscreteSymbol", "from_function")],
    "symbols.partial_ft": [("symbols", "DiscreteSymbol", "partial_ft")],
    "symbols.algebra": [("symbols", "DiscreteSymbol", "__add__"),
                        ("symbols", "DiscreteSymbol", "__sub__"),
                        ("symbols", "DiscreteSymbol", "__mul__"),
                        ("symbols", "DiscreteSymbol", "__rmul__")],
}

#: Every public function of the corpus module shares one span name.
CORPUS_MODULE = "corpus"

#: Root spans opened by the benchmark around the CLI entry points.
ROOT_SCENARIO = "experiments"
ROOT_WRITE = "experiments.write_outputs"

#: Per-layer metrics reported from a traced run, in report order.
LAYER_METRICS = (
    "torus.fft.calls", "torus.fft.self_s",
    "torus.support.calls", "torus.support.self_s",
    "lp.modulation_eval.calls", "lp.modulation_eval.self_s",
    "lp.modulation_eval.repeat_frac",
    "lp.block.calls", "lp.block.self_s",
    "symbols.construct.calls", "symbols.dense_bytes",
    "symbols.from_function.self_s",
    "symbols.partial_ft.calls", "symbols.partial_ft.self_s",
    "symbols.symbol_band.calls", "symbols.symbol_band.self_s",
    "symbols.symbol_band.repeat_frac",
    "symbols.algebra.self_s",
    "operators.apply.calls", "operators.apply.self_s",
    "operators.apply.bytes",
    "operators.modulated_symbol.calls", "operators.modulated_symbol.self_s",
    "operators.modulation_limit.total_s",
    "operators.para_split.total_s", "operators.para_split.self_s",
    "operators.support_inclusions.self_s",
    "operators.spectral_support_bound.self_s",
    "operators.compose_multiplier.self_s",
    "pointwise.symbol_factor.calls", "pointwise.symbol_factor.self_s",
    "pointwise.peetre_max.calls", "pointwise.peetre_max.self_s",
    "pointwise.hl_max.calls", "pointwise.hl_max.self_s",
    "pointwise.mihlin_bound.self_s",
    "pointwise.check_factorization.total_s",
    "pointwise.paraterm_pointwise_check.total_s",
    "pointwise.paraterm_pointwise_check.self_s",
    "spaces.space_norm.calls", "spaces.space_norm.self_s",
    "spaces.homog_besov_norm.calls", "spaces.homog_besov_norm.self_s",
    "spaces.marschall_check.total_s", "spaces.marschall_check.self_s",
    "spaces.fefferman_stein_check.total_s",
    "corpus.self_s",
    "experiments.self_s", "experiments.write_outputs_s",
    "trace.overhead_s", "trace.exceptions",
)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


class Tracer:
    """Wraps paradiff_lab entry points; use as a context manager.

    ``spans`` holds one tuple per finished call of a spanned entry point;
    ``counters`` holds exact counts and computed byte totals; ``repeats``
    holds, per keyed entry point, how many calls repeated an earlier key.
    """

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()
        self.repeats = Counter()
        self.exceptions = 0
        self._stack = []
        self._next_id = 0
        self._seen = defaultdict(set)
        # symbols keyed by id() stay referenced so that no id is reused
        self._keyed_symbols = {}
        self._patches = []

    # -- spans ----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.exceptions += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _mark(self, name, key):
        seen = self._seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def _wrap(self, name, fn):
        # keys and byte counts are taken before the span opens, so their
        # cost is charged to the caller's self time (and to the overhead)
        before = {"lp.modulation_eval": self._key_modulation_eval,
                  "symbols.symbol_band": self._key_symbol_band,
                  "operators.apply": self._count_apply_bytes}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _key_modulation_eval(self, psi, radii):
        arr = np.ascontiguousarray(np.asarray(radii, dtype=float))
        digest = hashlib.blake2b(arr.tobytes(), digest_size=16).digest()
        self._mark("lp.modulation_eval", (psi.r, psi.R, arr.shape, digest))

    def _key_symbol_band(self, a, k, part, cumulative=False):
        self._keyed_symbols[id(a)] = a
        self._mark("symbols.symbol_band", (id(a), k, bool(cumulative)))

    def _count_apply_bytes(self, a, u):
        self.counters["operators.apply.bytes"] += a.values.nbytes

    # -- installation ---------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Replace every binding of the listed entry points."""
        import paradiff_lab  # noqa: F401  (loads every submodule)
        mods = [m for n, m in list(sys.modules.items())
                if n == "paradiff_lab" or n.startswith("paradiff_lab.")]
        lib = {n.rsplit(".", 1)[-1]: m for n, m in sys.modules.items()
               if n.startswith("paradiff_lab.")}
        targets = [(name, getattr(lib[mod], fn))
                   for name, pairs in FUNCTIONS.items() for mod, fn in pairs]
        corpus = lib[CORPUS_MODULE]
        targets += [("corpus", obj) for attr, obj in vars(corpus).items()
                    if callable(obj) and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == corpus.__name__
                    and not isinstance(obj, type)]
        for name, orig in targets:
            wrapper = self._wrap(name, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapper)
        for name, triples in METHODS.items():
            for mod, cls_name, attr in triples:
                cls = getattr(lib[mod], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr,
                              classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(name, raw))
        symbols = lib["symbols"]
        init = symbols.DiscreteSymbol.__init__

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.counters["symbols.construct.calls"] += 1
            self.counters["symbols.dense_bytes"] += obj.values.nbytes
        self._set(symbols.DiscreteSymbol, "__init__", counted_init)
        return self

    def uninstall(self):
        """Restore every binding replaced by :meth:`install`."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self._keyed_symbols.clear()

    def record(self) -> dict:
        """Everything a traced run hands back, as plain JSON-able data."""
        return {"run_id": self.run_id, "spans": self.spans,
                "counters": dict(self.counters),
                "repeats": dict(self.repeats),
                "exceptions": self.exceptions}


# -- aggregation ------------------------------------------------------------


def aggregate(spans) -> dict:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    A span's self time is its duration minus the time its child spans
    cover; spans come from one thread, so children never overlap.
    ``total_s`` sums the durations of the spans that have no ancestor of the
    same name, so recursion is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    covered = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, parent, name, start, end in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered[sid]
        anc = parent
        while anc is not None and by_id[anc][2] != name:
            anc = by_id[anc][1]
        if anc is None:
            entry["total_s"] += end - start
    return dict(out)


def layer_metrics(agg: dict, record: dict, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """The per-layer metric values of one traced run, given its record and
    the :func:`aggregate` of its spans."""
    counters, repeats = record["counters"], record["repeats"]

    def span(name, field):
        return agg.get(name, {}).get(field, 0.0 if field != "calls" else 0)

    values = {}
    for metric in LAYER_METRICS:
        if metric in ("trace.overhead_s", "trace.exceptions"):
            continue
        if metric in ("symbols.dense_bytes", "operators.apply.bytes",
                      "symbols.construct.calls"):
            values[metric] = int(counters.get(metric, 0))
        elif metric == "experiments.write_outputs_s":
            values[metric] = span(ROOT_WRITE, "total_s")
        elif metric.endswith(".repeat_frac"):
            name = metric[:-len(".repeat_frac")]
            calls = span(name, "calls")
            values[metric] = repeats.get(name, 0) / calls if calls else 0.0
        else:
            name, field = metric.rsplit(".", 1)
            values[metric] = span(name, field)
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    values["trace.exceptions"] = int(record["exceptions"])
    return values

