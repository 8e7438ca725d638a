"""Spans at the module boundaries of incmac, installed only for a traced run.

Every function that one incmac module imports from another is replaced, in
every namespace that binds it (the defining module and the package too), by
a wrapper that records a span: name, parent span, start, end, arguments and
result.  `quadrature._gk15` is wrapped as well, so that GK15 panels are
counted, and `evaluator._closed_form_half_validated`, the one-time gate of
the half-order closed form.  Spans stay in memory; `layer_metrics` reduces
one pass of them to the per-layer metrics and `dump` writes them out.
"""

import importlib
import json
import time
import types

# Module-private functions that are boundaries too, by (module, name).
EXTRA = (("quadrature", "_gk15"), ("evaluator", "_closed_form_half_validated"))

# MethodTag values evaluate can return; each gets a count, 0 if unused.
PATHS = ("Oracle5", "SeriesSmallT", "SeriesSmallZ", "AsymptLargeT", "ClosedFormHalf")

# evaluator candidate tag -> the span whose time a rejection of it wastes
_CANDIDATE_SPAN = {
    "AsymptLargeT": "gamma._macdonald_k_eval",
    "SeriesSmallT": "expansions.series_small_t",
    "SeriesSmallZ": "expansions.series_small_z",
}

_ORACLES = ("quadrature.shu_oracle", "quadrature.shu_oracle_cosh")
_INTEGRATOR = ("quadrature.integrate_adaptive", "quadrature._gk15")
_SERIES = {
    "expansions.series_small_t": "expansions.small_t_calls",
    "expansions.series_small_z": "expansions.small_z_calls",
    "expansions.asympt_large_t": "expansions.large_t_calls",
}

# Span fields.
NAME, PARENT, START, END, ARGS, KWARGS, RESULT, ERROR = range(8)

_SUBMODULES = ("core", "quadrature", "gamma", "expansions", "evaluator", "relations", "verification", "cli")


class Tracer:
    """Installs the span wrappers into a package and collects spans."""

    def __init__(self, pkg):
        self.spans = []
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self._modules = [pkg] + [importlib.import_module(f"{pkg.__name__}.{m}") for m in _SUBMODULES]
        targets = set()
        for mod in self._modules:
            for value in vars(mod).values():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith(pkg.__name__ + ".")
                    and value.__module__ != mod.__name__
                ):
                    targets.add(value)
        for short, attr in EXTRA:
            targets.add(getattr(importlib.import_module(f"{pkg.__name__}.{short}"), attr))
        self._targets = targets

    def install(self):
        wrappers = {}
        for fn in self._targets:
            layer = fn.__module__.rsplit(".", 1)[-1]
            wrappers[fn] = self._wrap(fn, f"{layer}.{fn.__name__}")
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, args, kwargs, None, None]
            spans.append(span)
            stack.append(sid)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            span[RESULT] = result
            return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def dump(self, path):
        """Write the spans as JSON lines of name, parent, start and end."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[PARENT], s[START], s[END], s[ERROR]]) + "\n")


def _arg(span, index, name, default=None):
    args = span[ARGS]
    if len(args) > index:
        return args[index]
    return span[KWARGS].get(name, default)


def layer_metrics(spans):
    """Per-layer counts and times of one pass of spans.

    Self time is a span's duration minus the time its child spans cover.
    Counts are exact; the *_s values are seconds.
    """
    n = len(spans)
    child_time = [0.0] * n
    children = {}
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            child_time[parent] += s[END] - s[START]
            children.setdefault(parent, []).append(i)

    count = {}
    self_s = {}
    total_s = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        count[name] = count.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    m = {}
    integrate = [s for s in spans if s[NAME] == "quadrature.integrate_adaptive"]
    m["quadrature.panels"] = count.get("quadrature._gk15", 0)
    m["quadrature.integrate_calls"] = len(integrate)
    m["quadrature.subdivisions"] = sum(s[RESULT].subdivisions for s in integrate if s[ERROR] is None)
    m["quadrature.nonconverged"] = sum(
        1 for s in integrate if s[ERROR] is not None or not s[RESULT].converged
    )
    m["quadrature.integrate_self_s"] = sum(self_s.get(k, 0.0) for k in _INTEGRATOR)

    oracle = [s for s in spans if s[NAME] in _ORACLES]
    keys = {(s[NAME], _arg(s, 0, "p"), _arg(s, 1, "tol"), _arg(s, 2, "form", 5)) for s in oracle}
    m["quadrature.oracle_calls"] = len(oracle)
    m["quadrature.oracle_distinct_ratio"] = len(keys) / len(oracle) if oracle else 1.0
    m["quadrature.oracle_s"] = sum(total_s.get(k, 0.0) for k in _ORACLES)

    k_spans = [s for s in spans if s[NAME] == "gamma._macdonald_k_eval"]
    keys = {(_arg(s, 0, "order"), _arg(s, 1, "z"), _arg(s, 2, "tol")) for s in k_spans}
    m["gamma.k_calls"] = len(k_spans)
    m["gamma.k_distinct_ratio"] = len(keys) / len(k_spans) if k_spans else 1.0
    m["gamma.k_s"] = total_s.get("gamma._macdonald_k_eval", 0.0)
    m["gamma.uig_calls"] = count.get("gamma.upper_incomplete_gamma", 0)
    m["gamma.uig_s"] = total_s.get("gamma.upper_incomplete_gamma", 0.0)

    for span_name, metric in _SERIES.items():
        m[metric] = count.get(span_name, 0)
    m["expansions.work"] = sum(
        s[RESULT].work for s in spans if s[NAME] in _SERIES and s[ERROR] is None
    )
    m["expansions.self_s"] = layer_self("expansions")

    paths = dict.fromkeys(PATHS, 0)
    rejected = raised = 0
    wasted = 0.0
    for i, s in enumerate(spans):
        if s[NAME] != "evaluator.evaluate":
            continue
        if s[ERROR] is not None:
            raised += 1
            wasted += s[END] - s[START]
            continue
        decision = s[RESULT][1]
        paths[decision.chosen.value] = paths.get(decision.chosen.value, 0) + 1
        rejected += len(decision.candidates_tried)
        losers = {_CANDIDATE_SPAN.get(tag.value) for tag, _ in decision.candidates_tried}
        for c in children.get(i, ()):
            if spans[c][NAME] in losers:
                wasted += spans[c][END] - spans[c][START]
    returned = sum(paths.values())
    for tag, hits in paths.items():
        m[f"evaluator.path.{tag}"] = hits
    m["evaluator.rejected"] = rejected
    attempted = returned + rejected + raised
    m["evaluator.accept_ratio"] = returned / attempted if attempted else 1.0
    m["evaluator.wasted_s"] = wasted
    m["evaluator.self_s"] = layer_self("evaluator")
    m["evaluator.half_gate_s"] = total_s.get("evaluator._closed_form_half_validated", 0.0)

    residual = [
        s for s in spans if s[NAME].startswith("relations.") and s[NAME].endswith("_residual")
    ]
    m["relations.residual_calls"] = len(residual)
    m["relations.residual_s"] = sum(s[END] - s[START] for s in residual)
    m["verification.self_s"] = layer_self("verification")
    return m


# The metrics that are exact counts; the rest are times and ratios.
COUNTS = tuple(k for k in layer_metrics([]) if not k.endswith(("_s", "_ratio")))
