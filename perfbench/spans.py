"""In-memory spans recorded around calls into the layers of ``dte``.

The tracer never edits the package: while a :class:`Tracer` is installed it
replaces, from the outside, the names one module takes from another (for
example ``dte.pipeline.fit_lda``) with a wrapper that records a span, and it
puts the originals back when it is removed. Untraced code therefore runs
the unmodified functions.

A span is ``(name, start, end, parent, cycle)``: ``parent`` is the index of
the enclosing span or -1, and ``cycle`` identifies the benchmark cycle that
caused it. A span's self time is its duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def layer_targets(dte):
    """(span name, owner, attribute) for every layer boundary that is traced.

    The owner is the module (or class) whose attribute the caller looks up
    at call time, so patching it intercepts exactly the calls made across
    that boundary. One span name may have several owners when more than one
    module imports the same function.
    """
    cli, pipeline, embed, data = dte.cli, dte.pipeline, dte.embed, dte.data
    return [
        ("cli.cmd_train", cli, "cmd_train"),
        ("cli.cmd_predict", cli, "cmd_predict"),
        ("cli.cmd_benchmark", cli, "cmd_benchmark"),
        ("data.load_csv", cli, "load_csv"),
        ("data.bootstrap", embed, "bootstrap"),
        ("data.Dataset.subset", data.Dataset, "subset"),
        ("pipeline.fit", cli, "fit"),
        ("pipeline.fit", pipeline, "fit"),
        ("pipeline.predict", pipeline, "predict"),
        ("pipeline.cross_validate", cli, "cross_validate"),
        ("tree.fit_tree", pipeline, "fit_tree"),
        ("tree.fit_tree_arrays", embed, "fit_tree_arrays"),
        ("embed.dte_t", pipeline, "dte_t"),
        ("embed.project", cli, "project"),
        ("embed.project", pipeline, "project"),
        ("embed.Embedding.to_dict", embed.Embedding, "to_dict"),
        ("embed.Embedding.from_dict", embed.Embedding, "from_dict"),
        ("lda.fit_lda", pipeline, "fit_lda"),
        ("lda.predict_lda", cli, "predict_lda"),
        ("lda.predict_lda", pipeline, "predict_lda"),
        ("lda.LdaModel.to_dict", dte.lda.LdaModel, "to_dict"),
        ("lda.LdaModel.from_dict", dte.lda.LdaModel, "from_dict"),
    ]


class Tracer:
    """Collects spans in memory.

    ``collect`` maps a span name to a cheap projection of the call's return
    value (for example a fitted tree, or the shape of a matrix); the
    projections are kept in ``outputs`` so counts can be derived after the
    cycle, outside every span.
    """

    def __init__(self, targets, collect=None):
        self.targets = targets
        self.collect = collect or {}
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.outputs: list[tuple[str, object]] = []
        self.cycle = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body of a ``with`` block."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.cycle))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_, cycle = self.spans[idx]
            self.spans[idx] = (name_, start, time.perf_counter(), parent_, cycle)

    def _wrap(self, name, fn):
        keep = self.collect.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep is not None:
                self.outputs.append((name, keep(result)))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, owner, attr in self.targets:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def take_outputs(self):
        out, self.outputs = self.outputs, []
        return out

    def self_times(self, cycle: int) -> dict[str, tuple[float, int]]:
        """{span name: (total self seconds, calls)} over one cycle's spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, cyc in self.spans:
            if cyc == cycle and parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for idx, (name, start, end, parent, cyc) in enumerate(self.spans):
            if cyc == cycle:
                totals[name][0] += (end - start) - child_time[idx]
                totals[name][1] += 1
        return {name: (s, c) for name, (s, c) in totals.items()}

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, cycle in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "cycle": cycle}) + "\n")
