"""Span tracing at pcmc's layer boundaries, installed from outside the package.

The library reaches its own functions through module globals
(``ctmc.stationary``, ``data_mod.counts``, ``minimize`` imported into
``model``), so replacing a module attribute with a timing wrapper puts a
span around every call without touching ``src/``. ``Tracer.install``
swaps the wrappers in and ``Tracer.uninstall`` restores the originals.

A span is ``(id, parent, name, layer, start, end, command, extra)``.
Spans live in memory until the run ends. ``pass_metrics`` turns the
spans of one pass into the per-layer metrics named in BENCHMARK.json.
"""

import statistics
import time

LAYERS = ("cli", "data", "ctmc", "model", "luce", "param", "axioms",
          "evaluate", "serialize", "optimizer")

# (module, attribute, span name, layer). Every attribute here is looked
# up at call time by the library, so wrapping it intercepts the calls.
_FUNCTIONS = (
    ("data", "load", "data.load", "data"),
    ("data", "counts", "data.counts", "data"),
    ("data", "_set_terms", "data.set_terms", "data"),
    ("ctmc", "stationary", "ctmc.stationary", "ctmc"),
    ("ctmc", "restrict", "ctmc.restrict", "ctmc"),
    ("model", "fit", "model.fit", "model"),
    ("model", "finite_difference_gradient", "model.fd_gradient", "model"),
    ("model", "log_likelihood", "model.log_likelihood", "model"),
    ("luce", "fit_mnl", "luce.fit_mnl", "luce"),
    ("luce", "fit_mmnl", "luce.fit_mmnl", "luce"),
    ("param", "fit_bladechest", "param.fit_bladechest", "param"),
    ("axioms", "run_audit", "axioms.run_audit", "axioms"),
    ("axioms", "regularity_violations", "axioms.regularity", "axioms"),
    ("axioms", "tournament_from_model", "axioms.tournament", "axioms"),
    ("evaluate", "prediction_error", "evaluate.prediction_error", "evaluate"),
    ("serialize", "save_model", "serialize.save_model", "serialize"),
    ("serialize", "load_model", "serialize.load_model", "serialize"),
    ("serialize", "dumps", "serialize.dumps", "serialize"),
)

# scipy's minimize as imported by each fitting module; the objective it
# calls back into belongs to that module's layer.
_OPTIMIZERS = (
    ("model", "pcmc", "model"),
    ("param", "bladechest", "param"),
    ("luce", "mmnl", "luce"),
)
FAMILIES = tuple(fam for _, fam, _ in _OPTIMIZERS)

# Chain fits whose stationary calls count as careful-solver fallbacks.
_CHAIN_FITS = ("model.fit", "param.fit_bladechest")


def _extra_for(name, args, result):
    if name == "data.load":
        return {"rows": len(result)}
    if name == "axioms.regularity":
        return {"nestings": len(args[1])}
    if name == "evaluate.prediction_error":
        return {"sets": len(result.per_set_errors)}
    return None


class Tracer:
    """Records spans for calls through the wrapped module attributes."""

    def __init__(self, pcmc_package):
        self._pkg = pcmc_package
        self._saved = []
        self._stack = []
        self._next_id = 0
        self.spans = []
        self.command = None

    # -- recording -------------------------------------------------------

    def call(self, name, layer, fn, args, kwargs, extra_fn=None):
        """Run fn inside a span and return its result."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        extra = extra_fn(name, args, result) if extra_fn else None
        self.spans.append((span_id, parent, name, layer, start, end,
                           self.command, extra))
        return result

    def _wrap(self, name, layer, fn, extra_fn=None):
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, extra_fn)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_minimize(self, family, layer, minimize):
        def wrapper(fun, x0, *args, **kwargs):
            jac = kwargs.get("jac")
            if callable(jac):
                kwargs["jac"] = self._wrap("optimizer.%s.jac" % family, layer, jac)
            if kwargs.get("callback") is not None:
                kwargs["callback"] = self._wrap(
                    "optimizer.%s.callback" % family, layer, kwargs["callback"])
            fun = self._wrap("optimizer.%s.fun" % family, layer, fun)
            return self.call("optimizer.%s" % family, "optimizer", minimize,
                             (fun, x0) + args, kwargs, _optimizer_extra)
        wrapper.__wrapped__ = minimize
        return wrapper

    # -- installation ----------------------------------------------------

    def _swap(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m: getattr(self._pkg, m) for m in
                ("data", "ctmc", "model", "luce", "param", "axioms",
                 "evaluate", "serialize")}
        for mod, attr, name, layer in _FUNCTIONS:
            fn = getattr(mods[mod], attr)
            self._swap(mods[mod], attr, self._wrap(name, layer, fn, _extra_for))
        for mod, family, layer in _OPTIMIZERS:
            self._swap(mods[mod], "minimize",
                       self._wrap_minimize(family, layer, mods[mod].minimize))
        bc = mods["param"].BladeChest
        self._swap(bc, "to_pcmc", self._wrap("param.to_pcmc", "param", bc.to_pcmc))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take_spans(self):
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _optimizer_extra(name, args, result):
    return {"nit": int(getattr(result, "nit", 0)),
            "success": bool(getattr(result, "success", False))}


def _percentile(values, q):
    """q-th percentile (q a whole number), interpolated; 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None and s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


def pass_metrics(spans, wall_s):
    """Per-layer metrics of one traced pass.

    Inclusive ``.s`` figures count only the outermost span of a name, so
    recursion is not counted twice. Per-call latencies are returned
    separately (``samples``) so that percentiles can pool several passes.
    """
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)

    def ancestors(span):
        parent = span[1]
        while parent is not None:
            up = by_id[parent]
            yield up
            parent = up[1]

    names = {}
    outer = {}
    for s in spans:
        names.setdefault(s[2], []).append(s)
        if not any(a[2] == s[2] for a in ancestors(s)):
            outer.setdefault(s[2], []).append(s)

    def calls(name):
        return len(names.get(name, ()))

    def incl(name):
        return sum(s[5] - s[4] for s in outer.get(name, ()))

    m = {}
    for fam in FAMILIES:
        root = "optimizer." + fam
        runs = names.get(root, ())
        child_s = {"fun": 0.0, "jac": 0.0, "callback": 0.0}
        for part in child_s:
            child_s[part] = sum(s[5] - s[4] for s in names.get(root + "." + part, ()))
        m[root + ".fun.calls"] = calls(root + ".fun")
        m[root + ".jac.calls"] = calls(root + ".jac")
        m[root + ".fun_s"] = child_s["fun"]
        m[root + ".jac_s"] = child_s["jac"]
        m[root + ".callback_s"] = child_s["callback"]
        m[root + ".self_s"] = sum(own[s[0]] for s in runs)
        m[root + ".iterations"] = sum(s[7]["nit"] for s in runs)
        m[root + ".success"] = (sum(s[7]["success"] for s in runs) / len(runs)
                                if runs else 0.0)

    m["model.fd_gradient.calls"] = calls("model.fd_gradient")
    m["model.fd_gradient.s"] = incl("model.fd_gradient")
    m["model.fallback_solves"] = sum(
        1 for s in names.get("ctmc.stationary", ())
        if any(a[2] in _CHAIN_FITS for a in ancestors(s)))
    m["ctmc.stationary.calls"] = calls("ctmc.stationary")
    m["ctmc.stationary.s"] = incl("ctmc.stationary")
    m["ctmc.restrict.calls"] = calls("ctmc.restrict")
    m["param.fit_bladechest.s"] = incl("param.fit_bladechest")
    m["param.to_pcmc.calls"] = calls("param.to_pcmc")
    m["axioms.regularity.s"] = incl("axioms.regularity")
    m["axioms.regularity.nestings"] = sum(
        s[7]["nestings"] for s in names.get("axioms.regularity", ()))
    m["axioms.tournament.s"] = incl("axioms.tournament")
    m["axioms.expansion.s"] = sum(own[s[0]] for s in names.get("axioms.run_audit", ()))
    load_s = incl("data.load")
    rows = sum(s[7]["rows"] for s in names.get("data.load", ()))
    m["data.load.s"] = load_s
    m["data.load.rows_per_s"] = rows / load_s if load_s > 0 else 0.0
    m["data.counts.calls"] = calls("data.counts")
    m["data.counts.s"] = incl("data.counts")
    m["luce.fit_mnl.calls"] = calls("luce.fit_mnl")
    m["luce.fit_mnl.s"] = incl("luce.fit_mnl")
    m["luce.fit_mmnl.s"] = incl("luce.fit_mmnl")
    m["evaluate.prediction_error.s"] = incl("evaluate.prediction_error")
    m["evaluate.prediction_error.sets_scored"] = sum(
        s[7]["sets"] for s in names.get("evaluate.prediction_error", ()))
    m["serialize.save_model.s"] = incl("serialize.save_model")
    m["serialize.load_model.s"] = incl("serialize.load_model")
    for kind in ("fit", "eval", "audit"):
        m["cli.%s.s" % kind] = incl("cli." + kind)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s[3]] += own[s[0]]
    for layer in LAYERS:
        m[layer + ".self_s"] = layer_self[layer]
    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = wall_s

    samples = {
        "model.objective": [s[5] - s[4] for s in names.get("optimizer.pcmc.fun", ())],
        "ctmc.stationary": [s[5] - s[4] for s in names.get("ctmc.stationary", ())],
    }
    return m, samples


def combine_passes(per_pass, samples, untraced_wall):
    """Median of each metric over traced passes, plus pooled latencies."""
    out = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    # The highest percentile reported keeps at least ten samples beyond it
    # at full scale: about 100 objective calls and 20,000 solves per pass.
    for key, top in (("model.objective", 90), ("ctmc.stationary", 99)):
        us = [1e6 * v for v in samples[key]]
        out[key + ".us_p50"] = _percentile(us, 50)
        out["%s.us_p%d" % (key, top)] = _percentile(us, top)
    out["trace.passes"] = len(per_pass)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_share"] = out["trace.wall_s"] / untraced_wall - 1.0
    self_sum = sum(out[layer + ".self_s"] for layer in LAYERS)
    out["trace.self_sum_share"] = self_sum / untraced_wall - 1.0
    return out
