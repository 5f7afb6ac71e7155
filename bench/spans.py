"""Spans around the calls into each hardysys layer, recorded from outside.

``Tracer.install`` replaces the layer entry points listed in
``LAYER_FUNCTIONS`` at every hardysys module attribute that holds them (the
package re-exports, and modules that imported them by name), so calls made
inside the program are traced too.  While ``Tracer.active`` is set, each call
records a span: its name, start, end, parent span, and a few counts taken
from its arguments or result.  Spans stay in memory until the run writes
them out.  ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass

LAYER_FUNCTIONS = {
    "coupling": ("find_positive_roots", "classify"),
    "emdenfowler": ("integrate", "shoot_synchronized", "radial_system_residual",
                    "weighted_system_residual", "ef_system_residual"),
    "profiles": ("asymptotic_limits",),
    "verify": ("full_verification",),
    "cli": ("main", "cmd_classify", "cmd_verify", "cmd_shoot", "cmd_sweep"),
}

RESIDUALS = ("emdenfowler.radial_system_residual", "emdenfowler.weighted_system_residual",
             "emdenfowler.ef_system_residual")

# counts read off a call, by span name
_INFO = {
    "emdenfowler.integrate": lambda args, kwargs, result: {
        "accepted": result.accepted, "rejected": result.rejected},
    "verify.full_verification": lambda args, kwargs, result: {
        "families": result.n_families},
    "cli.cmd_sweep": lambda args, kwargs, result: {"samples": args[0].samples},
}

# per-layer metric -> unit, in report order
PER_LAYER = {
    "coupling.roots_calls": "count",
    "coupling.roots_ms": "ms",
    "coupling.classify_ms": "ms",
    "emdenfowler.integrate_calls": "count",
    "emdenfowler.steps_accepted": "count",
    "emdenfowler.steps_rejected": "count",
    "emdenfowler.accept_ratio": "ratio",
    "emdenfowler.us_per_step": "us",
    "emdenfowler.shoot_calls": "count",
    "emdenfowler.shoot_trials_per_root": "count",
    "emdenfowler.shoot_ms_per_root": "ms",
    "emdenfowler.residuals_ms_per_family": "ms",
    "profiles.asymptotics_ms_per_family": "ms",
    "verify.self_ms_per_case": "ms",
    "cli.startup_ms": "ms",
    "cli.root_searches_per_classify": "count",
    "cli.sweep_ms_per_sample": "ms",
    "trace.overhead_pct": "%",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    info: dict | None
    main_thread: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        info_of = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = info_of(args, kwargs, result) if info_of else None
            # list.append is atomic, so worker threads of a sweep may record too
            self.spans.append(Span(span_id, name, start, end, parent, info,
                                   threading.current_thread() is threading.main_thread()))
            return result

        return traced

    def install(self, package: str = "hardysys") -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"{package}.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def write_spans(path: str, rounds: list[list[Span]], probe: list[Span]) -> None:
    with open(path, "w") as fh:
        json.dump({"rounds": [[asdict(s) for s in spans] for spans in rounds],
                   "probe": [asdict(s) for s in probe]}, fh)


def count_signature(spans: list[Span]) -> dict:
    """Call counts and step sums of one round; equal rounds must agree exactly."""
    sig: dict = {}
    for s in spans:
        sig[s.name] = sig.get(s.name, 0) + 1
        for key, value in (s.info or {}).items():
            sig[f"{s.name}.{key}"] = sig.get(f"{s.name}.{key}", 0) + value
    return sig


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered, edge = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, edge), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            edge = hi
    return span.seconds - covered


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(round_spans: list[Span], all_spans: list[Span], probe: list[Span],
                  startup_ms: float, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``round_spans`` is one traced round (the counts, which every round repeats);
    ``all_spans`` holds every traced round (the per-call times).  A count of
    calls or steps reads 0 when the workload never reaches its layer; a time
    or a ratio of such a layer is read from the ``probe`` spans instead.
    """
    sig = count_signature(round_spans)

    def pool_for(name):
        return all_spans if any(s.name == name for s in all_spans) else probe

    def spans_of(name, pool=None):
        return [s for s in (pool_for(name) if pool is None else pool) if s.name == name]

    def children(pool):
        out: dict[int, list[Span]] = {}
        for s in pool:
            out.setdefault(s.parent, []).append(s)
        return out

    integrations = spans_of("emdenfowler.integrate")
    accepted = sum(s.info["accepted"] for s in integrations)
    rejected = sum(s.info["rejected"] for s in integrations)

    shoot_pool = pool_for("emdenfowler.shoot_synchronized")
    shoot_ids = {s.id for s in spans_of("emdenfowler.shoot_synchronized", shoot_pool)}
    trials = sum(1 for s in shoot_pool
                 if s.name == "emdenfowler.integrate" and s.parent in shoot_ids)

    verify_pool = pool_for("verify.full_verification")
    verify_kids = children(verify_pool)
    verifications = spans_of("verify.full_verification", verify_pool)
    residual_ms = [1e3 * sum(c.seconds for c in verify_kids.get(v.id, ())
                             if c.name in RESIDUALS) / v.info["families"]
                   for v in verifications if v.info["families"]]

    classify_pool = pool_for("cli.cmd_classify")
    parent_of = {s.id: s.parent for s in classify_pool}
    classify_ids = {s.id for s in classify_pool if s.name == "cli.cmd_classify"}

    def under_classify(span):
        node = span.parent
        while node is not None:
            if node in classify_ids:
                return True
            node = parent_of.get(node)
        return False

    searches = sum(1 for s in classify_pool
                   if s.name == "coupling.find_positive_roots" and under_classify(s))

    return {
        "coupling.roots_calls": sig.get("coupling.find_positive_roots", 0),
        # root searches in the sweep's thread pool wait on each other for the
        # interpreter lock, so only those on the main thread are timed
        "coupling.roots_ms": 1e3 * _median(s.seconds for s in spans_of("coupling.find_positive_roots")
                                           if s.main_thread),
        "coupling.classify_ms": 1e3 * _median(s.seconds for s in spans_of("coupling.classify")),
        "emdenfowler.integrate_calls": sig.get("emdenfowler.integrate", 0),
        "emdenfowler.steps_accepted": sig.get("emdenfowler.integrate.accepted", 0),
        "emdenfowler.steps_rejected": sig.get("emdenfowler.integrate.rejected", 0),
        "emdenfowler.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "emdenfowler.us_per_step": 1e6 * _median(
            s.seconds / (s.info["accepted"] + s.info["rejected"])
            for s in integrations if s.info["accepted"] + s.info["rejected"]),
        "emdenfowler.shoot_calls": sig.get("emdenfowler.shoot_synchronized", 0),
        "emdenfowler.shoot_trials_per_root": trials / len(shoot_ids) if shoot_ids else 0.0,
        "emdenfowler.shoot_ms_per_root": 1e3 * _median(
            s.seconds for s in spans_of("emdenfowler.shoot_synchronized")),
        "emdenfowler.residuals_ms_per_family": _median(residual_ms),
        "profiles.asymptotics_ms_per_family": 1e3 * _median(
            s.seconds for s in spans_of("profiles.asymptotic_limits")),
        "verify.self_ms_per_case": 1e3 * _median(
            self_seconds(v, verify_kids.get(v.id, [])) for v in verifications),
        "cli.startup_ms": startup_ms,
        "cli.root_searches_per_classify": searches / len(classify_ids) if classify_ids else 0.0,
        "cli.sweep_ms_per_sample": 1e3 * _median(
            s.seconds / s.info["samples"] for s in spans_of("cli.cmd_sweep")),
        "trace.overhead_pct": overhead_pct,
    }
