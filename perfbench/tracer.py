"""Span tracer that wraps crowdinfer's public functions from outside the package.

A span records one call of a wrapped function: its inclusive time, its self
time (inclusive time minus the time its wrapped callees cover), and a record
count where the function has one.  Every span belongs to the CLI stage that
was running when it opened, so each stage splits into layer self times plus
the stage's own glue code, ``cli.<stage>.self_s``.

Modules bind imported names when they are imported (``cli`` does
``from .core import read_responses``), so a function is patched under every
name that refers to it in every ``crowdinfer`` module namespace; patching only
the defining module would silently lose the calls made through the others.
Dataclass validation is traced by patching ``__post_init__`` on the class.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


def _size(obj) -> int:
    return len(obj) if hasattr(obj, "__len__") else 0


def _elements(args, kwargs, result) -> int:
    x = args[0] if args else kwargs["x"]
    return int(getattr(x, "size", 1))


# (module, attribute, records(args, kwargs, result) or None).  The metric name
# is "<module>.<attribute>"; for a class it is the class name and the span is
# its __post_init__ validation.
TARGETS = [
    ("core", "read_responses", lambda a, k, r: len(r)),
    ("core", "read_tasks", lambda a, k, r: len(r)),
    ("core", "read_alpha_records", lambda a, k, r: len(r)),
    ("core", "write_responses", lambda a, k, r: _size(a[1])),
    ("core", "write_tasks", lambda a, k, r: _size(a[1])),
    ("core", "write_alpha_records", lambda a, k, r: _size(a[1])),
    ("core", "attach_responses", lambda a, k, r: _size(a[1])),
    ("core", "tally", None),
    ("core", "split_dataset", lambda a, k, r: _size(a[0])),
    ("core", "task_rng", None),
    ("core", "DirichletParams", None),
    ("core", "SoftLabel", None),
    ("bayes", "posterior", None),
    ("bayes", "posterior_mode", None),
    ("metrics", "confidence", None),
    ("metrics", "soft_distance", None),
    ("metrics", "ambiguity", None),
    ("metrics", "soft_weight", None),
    ("metrics", "evaluate", lambda a, k, r: _size(a[0])),
    ("head", "log_gamma", _elements),
    ("head", "digamma", _elements),
    # records: epochs trained, so head.epoch_s = train_head.s / records
    ("head", "train_head", lambda a, k, r: (a[1] if len(a) > 1 else k["cfg"]).epochs),
    ("head", "head_forward", None),
    ("head", "load_model", None),
    ("head", "save_model", None),
    ("sim", "simulate_dataset", lambda a, k, r: len(r[1])),
    ("autothresh", "bootstrap_curves", lambda a, k, r: a[2] if len(a) > 2 else k["B"]),
    ("autothresh", "select_threshold", lambda a, k, r: len(r)),
    ("autothresh", "evaluate_thresholds", None),
    ("autothresh", "calibrate", None),
    ("autothresh", "ambiguity_calibration", None),
    ("autothresh", "write_curve_csv", None),
    ("priors", "repeats_summary", lambda a, k, r: _size(a[0])),
    # records: replay steps, responses times permutations
    ("priors", "repeats_run", lambda a, k, r: r.size * (a[2] if len(a) > 2 else k["permutations"])),
    ("priors", "blend_prior", None),
]


class Tracer:
    """Collects per-stage span statistics while installed."""

    def __init__(self):
        # (stage, span name) -> [inclusive s, self s, calls, records]
        self.stats = defaultdict(lambda: [0.0, 0.0, 0, 0])
        self._stack = []   # per open span: time covered by its wrapped callees
        self._stage = None
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, func, records):
        stats, stack = self.stats, self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = _clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                row = stats[(self._stage, name)]
                row[0] += elapsed
                row[1] += elapsed - child
                row[2] += 1
            if records is not None:
                row[3] += records(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    @contextmanager
    def stage(self, name):
        """Root span of one CLI stage invocation."""
        self._stage = name
        self._stack.append(0.0)
        start = _clock()
        try:
            yield
        finally:
            elapsed = _clock() - start
            child = self._stack.pop()
            row = self.stats[(name, "cli")]
            row[0] += elapsed
            row[1] += elapsed - child
            row[2] += 1
            self._stage = None

    # -- installation -------------------------------------------------------

    def install(self, package="crowdinfer"):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, attr, records in TARGETS:
            owner = sys.modules[f"{package}.{mod_name}"]
            original = getattr(owner, attr)
            name = f"{mod_name}.{attr}"
            if isinstance(original, type):
                init = original.__post_init__
                self._patch(original, "__post_init__", init, self._wrap(name, init, records))
                continue
            wrapper = self._wrap(name, original, records)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, target, key, original, wrapper):
        setattr(target, key, wrapper)
        self._patches.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def stage_names(self):
        return sorted({stage for stage, name in self.stats if name == "cli"})

    def balance(self, stage):
        """(stage span, sum of all self times in the stage) for one stage.

        The two agree up to rounding, since every wrapped call's inclusive
        time is its self time plus its callees' inclusive times.
        """
        total = self.stats[(stage, "cli")][0]
        parts = sum(row[1] for (s, _), row in self.stats.items() if s == stage)
        return total, parts
