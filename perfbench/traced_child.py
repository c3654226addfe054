"""Run one ``vactrap`` CLI command with every layer boundary traced.

    python3 traced_child.py SPANS.json SAMPLE.json -- <vactrap arguments>

Before the CLI runs, each public function of each ``vactrap`` module is
replaced, in every module that refers to it, by a wrapper that records a
span (id, name, start, end, parent span, thread) and, for
``integrate_sphere``, the grid nodes it evaluates.  Rule lookups are
traced at ``quadrature._leggauss`` and rule builds at numpy's
``leggauss``, which the lookup calls on a cache miss.  Spans stay in
memory until the command returns.

After the command, with tracing off, the child times ``integrate_sphere``
with and without the doubling check and the gradient at the positions
listed in SAMPLE.json ({"config": path, "positions": [[x, y, z], ...]}).
It writes spans, sample timings and the exit code to SPANS.json and exits
with the command's exit code.
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import sys
import threading
import time

from workloads import TOLERANCE

LAYERS = ("config", "cavity", "quadrature", "fields", "cli", "validation")
# Private names traced because they are where a layer does its work.
PRIVATE = {"quadrature": ("_leggauss",)}
RULE_BUILD = "quadrature.rule_build"
SAMPLE_REPEATS = 5


class Recorder:
    """Spans of one run.  A span opened in a worker thread with no open
    span of its own takes the main thread's innermost open span as its
    parent: that is the call that started the worker."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def untraced(self, func, *args):
        """Call ``func`` without recording spans in this thread."""
        self._local.paused = True
        try:
            return func(*args)
        finally:
            self._local.paused = False

    def call(self, name, func, args, kwargs, nodes=0, workers=0):
        if not self.enabled or getattr(self._local, "paused", False):
            return func(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               threading.get_ident(), nodes, workers))


def _grid_nodes(grid, tolerance) -> int:
    """Grid nodes one integrate_sphere call evaluates: three polar panels
    of n_polar x n_azimuth, plus the doubled grid when the doubling check
    runs.  Computed from the grid sizes, not counted in the kernel."""
    nodes = 3 * grid.n_polar * grid.n_azimuth
    return nodes * 5 if tolerance is not None else nodes


def _wrapper(recorder, name, func):
    if name == "quadrature.integrate_sphere":
        from vactrap.quadrature import AngularGrid
        signature = inspect.signature(func)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            grid = a["grid"] or recorder.untraced(
                AngularGrid.for_position, a["kr"], a["config"])
            return recorder.call(name, func, args, kwargs,
                                 nodes=_grid_nodes(grid, a["tolerance"]))
    elif name == "fields.run_scan":
        signature = inspect.signature(func)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            workers = max(1, bound.arguments["n_workers"])
            return recorder.call(name, func, args, kwargs, workers=workers)
    else:
        def traced(*args, **kwargs):
            return recorder.call(name, func, args, kwargs)
    return traced


def install(recorder: Recorder) -> dict:
    """Swap the traced wrappers in for the originals wherever the
    ``vactrap`` modules hold them: module attributes and module-level
    dicts such as the CLI's command table.  Returns the originals by
    span name."""
    import importlib

    import numpy.polynomial.legendre as legendre

    modules = [importlib.import_module(f"vactrap.{layer}") for layer in LAYERS]
    wrappers, originals = {}, {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, value in vars(module).items():
            public = not attr.startswith("_") and inspect.isfunction(value) \
                and value.__module__ == module.__name__
            if public or attr in PRIVATE.get(layer, ()):
                name = f"{layer}.{attr}"
                wrappers[id(value)] = _wrapper(recorder, name, value)
                originals[name] = value
    for module in modules + [importlib.import_module("vactrap")]:
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if id(value) in wrappers:
                namespace[attr] = wrappers[id(value)]
            elif isinstance(value, dict):
                for key, item in value.items():
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]
    legendre.leggauss = _wrapper(recorder, RULE_BUILD, legendre.leggauss)
    return originals


def sample_timings(integrate_sphere, config_path: str, positions) -> dict:
    """Median seconds per integrate_sphere call at each position: plain,
    with the doubling check at the CLI's tolerance, and with the
    gradient.  Each variant runs once untimed first, so rule builds are
    cached and the ratios measure the refinement and the gradient."""
    from vactrap.config import load_config
    from vactrap.quadrature import ConvergenceError

    run = load_config(config_path)
    phi0 = run.detuning.phase(run.cavity.rho)
    variants = {"plain": {}, "refine": {"tolerance": TOLERANCE},
                "gradient": {"with_gradient": True}}
    totals = dict.fromkeys(variants, 0.0)
    for position in positions:
        for variant, kwargs in variants.items():
            times = []
            for _ in range(SAMPLE_REPEATS + 1):
                start = time.perf_counter()
                try:
                    integrate_sphere(position, run.orientation, run.cavity,
                                     phi0, **kwargs)
                except ConvergenceError:
                    pass
                times.append(time.perf_counter() - start)
            totals[variant] += statistics.median(times[1:])
    return totals


def main(argv) -> int:
    spans_path, sample_path = argv[1], argv[2]
    cli_args = argv[argv.index("--") + 1:]
    recorder = Recorder()
    import vactrap.cli

    originals = install(recorder)
    status = recorder.call("run", vactrap.cli.main, (cli_args,), {})
    recorder.enabled = False
    with open(sample_path, encoding="utf-8") as handle:
        sample = json.load(handle)
    timings = sample_timings(originals["quadrature.integrate_sphere"],
                             sample["config"], sample["positions"])
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"status": status, "spans": recorder.spans,
                   "sample_s": timings}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
