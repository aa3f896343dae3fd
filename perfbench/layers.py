"""Per-layer tracing from outside the library.

A Tracer replaces each traced public function of genpos at every place a
module binds it (``position``, ``srg`` and ``laws`` each import
``all_pairs_distances`` by name, for example), so calls between modules
go through a wrapper that records one span.  Self time is the span minus
the time its child spans cover.  Nothing under ``src/`` is edited.

Run as a script, this file traces one command-line invocation:

    PYTHONPATH=src python3 perfbench/layers.py STATS.json compute --invariant all -i G.txt

which runs ``genpos.cli.main`` on the remaining arguments with the tracer
on and writes the record to STATS.json; the exit code is the CLI's.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs that get spans, the layers of the benchmark.
TRACED = (
    ("position", "solve"),
    ("position", "variant_feasibility"),
    ("position", "brute_force"),
    ("metric", "all_pairs_distances"),
    ("metric", "interval_masks"),
    ("metric", "is_convex"),
    ("metric", "simplicial_set"),
    ("srg", "strong_resolving_graph"),
    ("graphs", "maximum_clique"),
    ("graphs", "is_connected"),
    ("laws", "check_structural"),
    ("laws", "check_sufficient"),
    ("laws", "check_products"),
    ("laws", "check_families"),
    ("families", "generate"),
    ("families", "product"),
    ("families", "join"),
    ("families", "random_connected"),
    ("families", "random_tree"),
)

# solve spans are split by variant, the second argument.
SPLIT_BY_VARIANT = {"position.solve": ("gp", "total", "outer", "dual")}


def _graph_key(G) -> int:
    return hash((G.n, G.neighbor_masks))


def _dist_key(D) -> int:
    return hash(D.d)


# Functions whose distinct inputs are counted, to expose repeated work.
DISTINCT_KEYS = {
    "metric.all_pairs_distances": _graph_key,
    "metric.interval_masks": _dist_key,
}


def span_names():
    """Every span label a Tracer can record, in a fixed order."""
    out = []
    for module, fn in TRACED:
        name = f"{module}.{fn}"
        variants = SPLIT_BY_VARIANT.get(name)
        out += [f"{name}.{v}" for v in variants] if variants else [name]
    return out


class Tracer:
    """Spans around the traced functions, accumulated into one record."""

    def __init__(self):
        self.active = False
        self._stack: list[float] = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.distinct = defaultdict(set)

    def take(self) -> dict:
        """The record since the last take, as plain data; then reset."""
        record = {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
        }
        self.reset()
        return record

    def merge(self, record: dict):
        """Add a record taken elsewhere, e.g. in a traced child process."""
        for k, v in record["calls"].items():
            self.calls[k] += v
        for k, v in record["self_s"].items():
            self.self_s[k] += v
        for k, v in record["distinct"].items():
            self.distinct[k].update(v)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (reference checks) record no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn):
        split = name in SPLIT_BY_VARIANT
        key_of = DISTINCT_KEYS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name
            if split:
                label = f"{name}.{args[1] if len(args) > 1 else kwargs['variant']}"
            if key_of is not None:
                self.distinct[label].add(key_of(args[0]))
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                child = stack.pop()
                self.self_s[label] += span - child
                self.calls[label] += 1
                if stack:
                    stack[-1] += span

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Rebind every traced function wherever a genpos module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "genpos" or n.startswith("genpos.")]
        for module, fn in TRACED:
            original = getattr(sys.modules[f"genpos.{module}"], fn)
            wrapper = self._wrap(f"{module}.{fn}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def _trace_cli(stats_path: str, argv: list[str]) -> int:
    import genpos  # noqa: F401  (binds every module before install)
    import genpos.cli

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return genpos.cli.main(argv)
    finally:
        tracer.active = False
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.take(), fh)


if __name__ == "__main__":
    sys.exit(_trace_cli(sys.argv[1], sys.argv[2:]))
