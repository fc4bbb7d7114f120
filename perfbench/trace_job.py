"""Run one circlekit CLI job in this process with spans around every layer.

Usage: python3 perfbench/trace_job.py SPANS.json CLI-ARG...

The circlekit package is not modified.  Before ``circlekit.cli.main`` runs,
every public function of poly, local, arch, arcs, count and hinv is replaced
by a timing wrapper in each module namespace that holds a reference to it;
``Polynomial.eval_float``/``evaluate``/``evaluate_mod``,
``scipy.stats.qmc.Sobol.random`` and ``cli.main`` are wrapped the same way.
Per span name the job writes calls, inclusive seconds (outermost call only,
so recursion is not counted twice) and self seconds (duration minus the
durations of directly nested spans), plus the rows evaluated by
``eval_float`` and drawn from Sobol, and the warnings ``mu_p`` returned.
Spans are aggregated in memory and written when the job ends; the report
itself still goes to stdout.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("poly", "local", "arch", "arcs", "count", "hinv")


class Tracer:
    def __init__(self):
        self.stats = {}          # name -> [calls, incl. ns, self ns, depth]
        self.counts = {}         # name -> summed counter
        self._children = [0]     # ns spent in nested spans, one slot per level

    def wrap(self, name, fn, counter=None):
        st = self.stats.setdefault(name, [0, 0, 0, 0])
        children = self._children
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0)
            st[3] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[3] -= 1
                st[0] += 1
                st[2] += dt - children.pop()
                children[-1] += dt
                if st[3] == 0:
                    st[1] += dt
            if counter is not None:
                key, amount = counter(out)
                self.counts[key] = self.counts.get(key, 0) + amount
            return out
        return span

    def summary(self):
        out = {}
        for name, (calls, incl, self_ns, _) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl / 1e9
            out[f"{name}.self_s"] = self_ns / 1e9
        out.update(self.counts)
        return out


def install(tracer):
    """Wrap the layers' public functions wherever they are referenced."""
    import circlekit
    from circlekit import cli
    from circlekit.poly import Polynomial
    from scipy.stats import qmc

    mods = {m: importlib.import_module(f"circlekit.{m}") for m in LAYERS}
    spaces = [circlekit, cli, *mods.values()]
    counters = {
        "local.mu_p": lambda r: ("local.mu_p.warnings", int(bool(r.warning))),
    }
    for short, mod in mods.items():
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            full = f"{short}.{name}"
            wrapped = tracer.wrap(full, fn, counters.get(full))
            for ns in spaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, attr, wrapped)
    Polynomial.eval_float = tracer.wrap(
        "poly.eval_float", Polynomial.eval_float,
        lambda r: ("poly.eval_float.rows", len(r)))
    Polynomial.evaluate = tracer.wrap("poly.evaluate", Polynomial.evaluate)
    Polynomial.evaluate_mod = tracer.wrap("poly.evaluate_mod",
                                          Polynomial.evaluate_mod)
    qmc.Sobol.random = tracer.wrap(
        "arch.sobol", qmc.Sobol.random,
        lambda r: ("arch.sobol.rows", len(r)))
    cli.main = tracer.wrap("cli.main", cli.main)
    return cli


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    cli = install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        Path(spans_path).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
