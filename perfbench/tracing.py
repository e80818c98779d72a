"""Timing proxies installed from outside the package, and self-time accounting.

``Tracer.install`` replaces each traced function at every import site it can
find: the defining module, every other ``mixquant`` module that imported the
name, and the package namespace.  Methods are replaced on their class, so
subclasses that inherit them are traced too.  Each call records one span
``(name, parent, start, end)``; spans stay in memory until ``write`` is
called after the run.  A span's self time is its duration minus the
durations of its direct children, which nest inside it because the
benchmark runs one thread.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module of ``mixquant``, attribute path) for every traced callable.
TRACED = (
    ("distributions", "Piecewise.__init__"),
    ("distributions", "Piecewise.cdf"),
    ("distributions", "Piecewise.cdf_left_limit"),
    ("distributions", "Piecewise.quantile"),
    ("distributions", "Piecewise.flat_left_of"),
    ("distributions", "Parametric.cdf"),
    ("distributions", "Parametric.quantile"),
    ("mixture", "merged_distribution"),
    ("mixture", "direct_quantile"),
    ("mixture", "numeric_quantile"),
    ("mixture", "mixture_cdf"),
    ("mixture", "mixture_cdf_left_limit"),
    ("mixture", "sample"),
    ("split", "split_quantile"),
    ("classify", "classify"),
    ("classify", "verify_cell_relations"),
    ("verification", "generate_instance"),
    ("verification", "cross_check"),
    ("verification", "grid_oracle_quantile"),
    ("verification", "monte_carlo_quantile"),
    ("serialization", "parse_mixture"),
    ("cli", "main"),
)

OP = "bench.op"


def _call(fn, *args):
    return fn(*args)


def metric_name(module: str, path: str) -> str:
    """``distributions.Piecewise.init`` for ``Piecewise.__init__``."""
    return f"{module}.{path.replace('__init__', 'init')}"


NAMES = (OP,) + tuple(metric_name(module, path) for module, path in TRACED)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []
        #: First argument of every merge, kept alive so ``id`` stays unique.
        self.merged_mixtures: list = []
        #: ``op(fn, *args)`` runs one benchmark operation inside a root span.
        self.op = self._proxy(_call, 0)

    def _proxy(self, fn, name_id: int, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def proxy(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, parent, start, end)

        return proxy

    def install(self) -> None:
        mq_modules = [
            mod for name, mod in sys.modules.items()
            if (name == "mixquant" or name.startswith("mixquant.")) and mod is not None
        ]
        for name_id, (module, path) in enumerate(TRACED, start=1):
            owner = sys.modules[f"mixquant.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                targets = [vars(owner)[cls_name]]
            else:
                attr = path
                targets = [mod for mod in mq_modules if vars(mod).get(attr) is vars(owner)[attr]]
            original = getattr(targets[0], attr)
            on_call = self._note_merge if path == "merged_distribution" else None
            proxy = self._proxy(original, name_id, on_call)
            for target in targets:
                self._undo.append((target, attr, vars(target)[attr]))
                setattr(target, attr, proxy)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _note_merge(self, args, kwargs) -> None:
        self.merged_mixtures.append(args[0] if args else kwargs["m"])

    def summary(self, ops: int) -> tuple[dict, bool]:
        """Per-op calls and self time for every traced name, plus the extras.

        The flag says whether the self times of all spans, the untraced
        remainder ``bench.op.self_ms`` included, add up to ``bench.op.ms``.
        """
        count = [0] * len(NAMES)
        total = [0.0] * len(NAMES)
        child = [0.0] * len(self.spans)
        for name_id, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name_id, parent, start, end) in enumerate(self.spans):
            count[name_id] += 1
            total[name_id] += end - start - child[index]
        ops = max(ops, 1)
        out = {}
        for name_id, name in enumerate(NAMES):
            if name_id:
                out[f"{name}.calls"] = count[name_id] / ops
            out[f"{name}.self_ms"] = 1e3 * total[name_id] / ops
        op_ms = 1e3 * sum(end - start for name_id, _, start, end in self.spans if name_id == 0) / ops
        out[f"{OP}.ms"] = op_ms
        self_sum = sum(out[f"{name}.self_ms"] for name in NAMES)
        adds_up = abs(self_sum - op_ms) <= 1e-6 * max(op_ms, 1e-9)

        init_id = NAMES.index("distributions.Piecewise.init")
        gen_id = NAMES.index("verification.generate_instance")
        split_id = NAMES.index("split.split_quantile")
        quantile_ids = {
            NAMES.index("distributions.Piecewise.quantile"),
            NAMES.index("distributions.Parametric.quantile"),
        }
        builds = probes = 0
        for name_id, parent, _, _ in self.spans:
            if parent < 0:
                continue
            parent_id = self.spans[parent][0]
            if name_id == init_id and parent_id == gen_id:
                builds += 1
            elif name_id in quantile_ids and parent_id == split_id:
                probes += 1
        merges = len(self.merged_mixtures)
        distinct = len({id(m) for m in self.merged_mixtures})
        out["mixture.merged_distribution.per_mixture"] = merges / distinct if distinct else 0.0
        out["verification.generate_instance.builds"] = (
            builds / count[gen_id] if count[gen_id] else 0.0
        )
        out["split.split_quantile.probes"] = probes / count[split_id] if count[split_id] else 0.0
        return out, adds_up

    def write(self, path) -> None:
        """Spans as tab-separated ``name parent start end`` lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tparent\tstart\tend\n")
            for name_id, parent, start, end in self.spans:
                handle.write(f"{NAMES[name_id]}\t{parent}\t{start:.9f}\t{end:.9f}\n")
