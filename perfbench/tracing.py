"""Spans around the library's public functions, recorded from outside it.

Each layer is a set of public names.  Installing the instrumentation
replaces every binding of those names in the loaded filterjet modules
(``filterjet.experiments.filter_step`` as well as
``filterjet.filtering.filter_step``) with a wrapper that records a span:
name, start, end, parent span and op.  Spans stay in memory until the
run ends.  A name the library no longer has is reported absent, and its
layer reads zero calls.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter


def _matrices_bytes(args, kwargs):
    """Computed bytes written by one joint-kernel assembly: K * N^2 * 8."""
    cache = args[0]
    return len(cache.index_set) * cache.grid.size**2 * 8


def _iterate_slots(args, kwargs):
    """Slots a filter pass carries, from its initial vector measure."""
    measure = args[3] if len(args) > 3 else kwargs["measure"]
    return len(measure.index_set)


# layer -> (targets, work annotation); a target is (module, name) where
# name is a module attribute or Class.method.
LAYERS = {
    "models.transition_grid_jet": ((("filterjet.models", "TruncatedNonlinearModel.transition_grid_jet"),), None),
    "models.observation_grid_factory": ((("filterjet.models", "TruncatedNonlinearModel.observation_grid_factory"),), None),
    "models.transition_sample": ((("filterjet.models", "TruncatedNonlinearModel.transition_sample"),), None),
    "models.observation_sample": ((("filterjet.models", "TruncatedNonlinearModel.observation_sample"),), None),
    "filtering.cache_build": ((("filterjet.filtering", "KernelCache.__init__"),), None),
    "filtering.matrices": ((("filterjet.filtering", "KernelCache.matrices"),), _matrices_bytes),
    "filtering.observation_vectors": ((("filterjet.filtering", "KernelCache.observation_vectors"),), None),
    "filtering.step": (
        (("filterjet.filtering", "filter_step"), ("filterjet.filtering", "filter_step_with_scalars")),
        None,
    ),
    "filtering.iterate": ((("filterjet.filtering", "filter_iterate"),), _iterate_slots),
    "grid.is_l0": ((("filterjet.grid", "VectorMeasure.is_l0"),), None),
    "loglik.jet_increments": ((("filterjet.loglik", "jet_increments_from_scalars"),), None),
    "loglik.loglik_jet": ((("filterjet.loglik", "loglik_jet"),), None),
    "loglik.rml_demo": ((("filterjet.loglik", "rml_demo"),), None),
    "oracle.fd_derivative": ((("filterjet.oracle", "fd_derivative"),), None),
    "experiments.ergodicity": ((("filterjet.experiments", "ergodicity_experiment"),), None),
    "experiments.identity_sweep": ((("filterjet.experiments", "derivative_identity_sweep"),), None),
    "seeding.labeled_rng": ((("filterjet.seeding", "labeled_rng"),), None),
}

OP_SPAN = "bench.op"
# Span record fields, kept as plain lists because the hot loop appends
# hundreds of thousands of them.
NAME, START, END, PARENT, OP, WORK = range(6)


class Tracer:
    """In-memory span recorder; inactive wrappers cost one attribute test."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._op,
                    work(args, kwargs) if work else 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def run_op(self, index, fn, *args):
        """Call fn as the root span of op `index`; its spans share that op id."""
        self._op = index
        return self.wrap(OP_SPAN, fn)(*args)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


class Instrumentation:
    """Installs the tracer's wrappers at every binding site and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.present: dict[str, bool] = {}
        self._undo: list = []

    def install(self) -> None:
        for layer, (targets, work) in LAYERS.items():
            for module_name, attr in targets:
                label = f"{module_name}.{attr}"
                self.present[label] = self._patch(layer, module_name, attr, work)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def absent(self) -> list[str]:
        return [label for label, ok in self.present.items() if not ok]

    def _patch(self, layer, module_name, attr, work) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                return False
            own = cls.__dict__.get(method)
            setattr(cls, method, self.tracer.wrap(layer, original, work))
            self._undo.append(
                lambda: setattr(cls, method, own) if own is not None else delattr(cls, method)
            )
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapped = self.tracer.wrap(layer, original, work)
        for name, loaded in list(sys.modules.items()):
            if name != "filterjet" and not name.startswith("filterjet."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    self._undo.append(functools.partial(setattr, loaded, key, original))
        return True


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for start, end in sorted(children.get(idx, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def call_counts(spans: list[list]) -> Counter:
    return Counter(span[NAME] for span in spans)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Calls, self ms and total ms per layer, plus the derived ratios."""
    selfs = self_times(spans)
    calls = Counter()
    total = Counter()
    own = Counter()
    work = Counter()
    for span, self_s in zip(spans, selfs):
        name = span[NAME]
        calls[name] += 1
        total[name] += span[END] - span[START]
        own[name] += self_s
        work[name] += span[WORK]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_ms"] = own[layer] * 1e3
        out[f"{layer}.total_ms"] = total[layer] * 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    out["filtering.matrices.bytes_per_call"] = ratio(work["filtering.matrices"], calls["filtering.matrices"])
    out["filtering.step_us"] = ratio(total["filtering.step"] * 1e6, calls["filtering.step"])
    out["filtering.cache_builds_per_step"] = ratio(calls["filtering.cache_build"], calls["filtering.step"])

    # Filter passes issued under a finite-difference derivative, and the
    # share of the slots they compute that the difference quotient uses.
    under_fd = [False] * len(spans)
    fd_evals = fd_slots = 0
    for idx, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            under_fd[idx] = under_fd[parent] or spans[parent][NAME] == "oracle.fd_derivative"
        if under_fd[idx] and span[NAME] == "filtering.iterate":
            fd_evals += 1
            fd_slots += span[WORK]
    out["oracle.fd_evals"] = fd_evals
    out["oracle.fd_slot_use"] = ratio(fd_evals, fd_slots)
    return out


def write_spans(path: str, spans: list[list], extra: dict) -> None:
    """Spans as rows [name, start_us, end_us, parent, op, work], times from the first start."""
    names = sorted({span[NAME] for span in spans})
    index = {name: k for k, name in enumerate(names)}
    origin = spans[0][START] if spans else 0.0
    rows = [
        [index[s[NAME]], round((s[START] - origin) * 1e6, 3), round((s[END] - origin) * 1e6, 3),
         s[PARENT], s[OP], s[WORK]]
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**extra, "names": names, "fields": ["name", "start_us", "end_us", "parent", "op", "work"],
                   "spans": rows}, fh, separators=(",", ":"))
