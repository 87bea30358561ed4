"""In-memory span tracing of qsverify's public functions, from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper that
records one span per call: the function's name, its start and end time, and
the span that was open when it was called (its parent). A function is
replaced wherever a qsverify module binds it, so names another module
imported (``exact.pass_probability``, ``simulate.overlap``, ``cli.fig3_rows``)
are traced too, and class methods are replaced on the class.

A traced name that the package no longer defines is skipped, not an error:
its counts read zero and ``missing`` lists it.

Spans stay in memory while the workload runs; ``write`` saves them and
``layer_metrics`` turns them into per-layer counts and times. Self time is a
span's duration minus the durations of its direct children, which nest
without overlap because the package runs on one thread.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

# (module, attribute) pairs; "Class.method" names a method on a class.
TRACED = [
    ("simulate", "run_rounds"),
    ("simulate", "RandomPlan.round_rng"),
    ("simulate", "summarize"),
    ("simulate", "clopper_pearson"),
    ("simulate", "run_experiment"),
    ("simulate", "scaling_experiment"),
    ("simulate", "write_rounds_csv"),
    ("certificates", "binom_tail"),
    ("certificates", "solve_J"),
    ("certificates", "sqsv_certificate"),
    ("certificates", "dqsv_certificate"),
    ("sources", "rho1"),
    ("sources", "rho2"),
    ("sources", "honest_iid"),
    ("sources", "werner_state"),
    ("sources", "depolarized_state"),
    ("strategy", "test_pass_probabilities"),
    ("strategy", "pass_probability"),
    ("linalg", "DensityMatrix.__post_init__"),
    ("linalg", "expectation"),
    ("linalg", "overlap"),
    ("exact", "exact_stats"),
    ("exact", "dqsv_soundness_sweep"),
    ("reproduce", "fig3_rows"),
    ("reproduce", "fig4_rows"),
    ("reproduce", "fig5_rows"),
    ("reproduce", "write_csv"),
    ("cli", "main"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # One entry per span, in call order.
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        # Arguments of the calls whose inputs the metrics need, per name.
        self.args: dict[str, list] = {}
        self.files: dict[str, list[str]] = {}
        self.missing: list[str] = []

    def _wrap(self, name: str, fn, keep_args: bool, path_arg: str | None):
        nid = len(self.names)
        self.names.append(name)
        sig = inspect.signature(fn) if (keep_args or path_arg) else None
        stack = self._stack
        names_, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names_)
            names_.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
                if sig is not None:
                    self._record(name, sig, args, kwargs, keep_args, path_arg)

        return wrapper

    def _record(self, name, sig, args, kwargs, keep_args, path_arg) -> None:
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:  # the call itself failed on its arguments
            return
        bound.apply_defaults()
        if keep_args:
            self.args.setdefault(name, []).append(dict(bound.arguments))
        if path_arg:
            self.files.setdefault(name, []).append(os.fspath(bound.arguments[path_arg]))

    def install(self) -> None:
        import qsverify  # noqa: F401  (loads every submodule the package imports)
        import qsverify.cli  # noqa: F401

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "qsverify"]
        for mod_name, attr in TRACED:
            module = sys.modules.get(f"qsverify.{mod_name}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, meth, None) if owner is not None else None
            name = f"{mod_name}.{attr}"
            if fn is None or not callable(fn):
                self.missing.append(name)
                continue
            keep = attr in ("run_rounds", "scaling_experiment", "solve_J",
                            "sqsv_certificate", "dqsv_certificate")
            path_arg = "path" if attr in ("write_rounds_csv", "write_csv") else None
            if path_arg and "path" not in inspect.signature(fn).parameters:
                path_arg = None
            wrapper = self._wrap(name, fn, keep, path_arg)
            if owner_name:
                setattr(owner, meth, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def write(self, path) -> None:
        """Save every span as one CSV line: id, parent, name, start_s, end_s."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (n, p, s, e) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i},{p},{self.names[n]},{s - t0:.9f},{e - t0:.9f}\n")

    def summary(self) -> dict[str, dict]:
        """Per name: calls, busy_s (outermost calls only), self_s, durations."""
        count = len(self.span_name)
        child_time = [0.0] * count
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
               for name in self.names}
        for i in range(count):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += dur - child_time[i]
            rec["durations"].append(dur)
            if not self._has_ancestor(i, self.span_name[i]):
                rec["busy_s"] += dur
        return out

    def _has_ancestor(self, i: int, name_id: int) -> bool:
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == name_id:
                return True
            p = self.span_parent[p]
        return False

    def calls_within(self, inner: str, outer: str) -> int:
        """Calls of ``inner`` made while a call of ``outer`` was open."""
        if inner not in self.names or outer not in self.names:
            return 0
        inner_id, outer_id = self.names.index(inner), self.names.index(outer)
        return sum(
            1
            for i, n in enumerate(self.span_name)
            if n == inner_id and self._has_ancestor(i, outer_id)
        )


def percentile_ms(durations: list[float], q: int) -> float:
    """The q-th percentile in milliseconds (0 without samples)."""
    if len(durations) < 2:
        return 1e3 * durations[0] if durations else 0.0
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def repeat_share(keys: list) -> float:
    """Share of keys that already occurred earlier in the list."""
    if not keys:
        return 0.0
    seen = set()
    repeats = 0
    for key in keys:
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(keys)
