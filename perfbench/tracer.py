"""In-memory span tracer that wraps pacesim's public functions from outside.

`install` replaces every public module-level function of the pacesim
modules (and every other pacesim namespace that imported it by name) with
a wrapper that records a span: name, start, end, parent span and pass id.
Two hot methods whose counts the per-layer metrics need are wrapped too
(`ValueModel.sample_indices`, `EnvironmentStep.spend_value`), and so are
the entries of the CLI's verify-suite table, so that each `verify all`
suite gets a span of its own.  Nothing under src/ is edited; `uninstall`
restores the original objects.

A tracer with `record=False` keeps no spans and only runs the count hooks;
the untraced runs use one on `replicate` and `simulate_pacing` alone, to
count simulated rounds without timing anything inside pacesim.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = (
    "auctions",
    "pacing",
    "simulation",
    "welfare",
    "lp",
    "regret",
    "verify",
    "config",
    "scenarios",
    "cli",
)


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _size(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p is not None)


def _count_replicate(tracer, args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    reps = _arg(args, kwargs, 1, "replications")
    tracer.count("simulation.row_rounds", reps * config.horizon)
    tracer.count("simulation.agent_rounds", reps * config.horizon * config.n_agents)


def _count_simulate_pacing(tracer, args, kwargs, result):
    tracer.count("regret.row_rounds", sum(run.horizon for run in result))


def _count_epochs(tracer, args, kwargs, result):
    checked, violations, _min_slack = result
    tracer.count("simulation.epochs_checked", checked)
    tracer.count("simulation.epoch_violations", violations)


def _count_save(tracer, args, kwargs, result):
    written = _size(_arg(args, kwargs, 1, "csv_path"), _arg(args, kwargs, 2, "envelope_path"))
    tracer.count("simulation.bytes_written", written)


def _count_load(tracer, args, kwargs, result):
    read = _size(_arg(args, kwargs, 0, "csv_path"), _arg(args, kwargs, 1, "envelope_path"))
    tracer.count("simulation.bytes_read", read)


def _count_lp(tracer, args, kwargs, result):
    a = _arg(args, kwargs, 1, "A")
    tracer.count("lp.pivots", result.iterations)
    tracer.maximum("lp.rows", len(a))
    tracer.maximum("lp.cols", len(a[0]))


def _count_spend_value(tracer, args, kwargs, result):
    tracer.count("regret.spend_value_points", len(result[0]))


HOOKS = {
    "simulation.replicate": _count_replicate,
    "regret.simulate_pacing": _count_simulate_pacing,
    "simulation.epoch_bound_stats": _count_epochs,
    "simulation.save_trace": _count_save,
    "simulation.load_trace": _count_load,
    "lp.solve_lp_max": _count_lp,
    "regret.EnvironmentStep.spend_value": _count_spend_value,
}

#: What the untraced runs wrap: the two entry points that simulate rounds.
ROUND_COUNTERS = frozenset({"simulation.replicate", "regret.simulate_pacing"})


class Tracer:
    """Spans and counts kept in memory until the benchmark writes them out.

    A span is [name, start, end, parent index, pass id]; counts are keyed
    by (pass id, name).  Single-threaded by design: the benchmark is a
    closed loop on one thread, and pacesim runs its replications on the
    calling thread when PACESIM_THREADS is unset.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.pass_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.record:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, value: float) -> None:
        self.counts[(self.pass_id, name)] += value

    def maximum(self, name: str, value: float) -> None:
        key = (self.pass_id, name)
        self.counts[key] = max(self.counts[key], value)

    def total(self, name: str, pass_ids=None) -> float:
        return sum(
            v for (p, n), v in self.counts.items()
            if n == name and (pass_ids is None or p in pass_ids)
        )

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.record:
                result = fn(*args, **kwargs)
            else:
                index = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, only=None) -> None:
        """Wrap pacesim's public functions (or just the names in `only`)."""
        mods = [importlib.import_module(f"pacesim.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            for obj in vars(mod).values():
                if (
                    inspect.isfunction(obj)
                    and not obj.__name__.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{mod.__name__.split('.')[-1]}.{obj.__name__}"
                    if only is None or name in only:
                        wrappers[obj] = self._wrap(name, obj)
        for mod in mods + [importlib.import_module("pacesim")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        if only is not None:
            return
        simulation = importlib.import_module("pacesim.simulation")
        regret = importlib.import_module("pacesim.regret")
        cli = importlib.import_module("pacesim.cli")
        for cls, method in (
            (simulation.ValueModel, "sample_indices"),
            (regret.EnvironmentStep, "spend_value"),
        ):
            name = f"{cls.__module__.split('.')[-1]}.{cls.__name__}.{method}"
            self._set(cls, method, self._wrap(name, getattr(cls, method)))
        suites = cli._SUITES
        self._patches.append((suites, None, dict(suites)))
        for key, fn in list(suites.items()):
            suites[key] = self._wrap(f"cli.suite.{key}", fn)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)

