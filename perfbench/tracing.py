"""Spans around the calls into each layer of the package.

The benchmark wraps module attributes that the package looks up at call
time (``cli`` finds its backends, parsers and CSV functions in its own
namespace; ``strings`` and ``minplus`` find their (min,+) products in
theirs), so no file of the package changes. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name); a span's name is its layer and operation
SPANS = (
    ("cli", "main", "cli"),
    ("cli", "parse_binary_string_text", "inputs.parse"),
    ("cli", "parse_weights_text", "inputs.parse"),
    ("cli", "parse_tree_text", "inputs.parse"),
    ("cli", "naive_profile", "strings.profile"),
    ("cli", "blocked_profile", "strings.profile"),
    ("cli", "recursive_profile", "strings.profile"),
    ("cli", "naive_weighted_max_sums", "strings.weighted"),
    ("cli", "weighted_max_sums", "strings.weighted"),
    ("cli", "simple_tree_profile", "trees.profile"),
    ("cli", "tree_profile", "trees.profile"),
    ("cli", "weighted_tree_max_sums", "trees.weighted"),
    ("trees", "micro_macro", "trees.micro_macro"),
    ("trees", "encode_delta", "bitvec.encode"),
    ("strings", "min_plus_product", "minplus.product"),
    ("strings", "max_plus_product", "minplus.product"),
    ("minplus", "min_plus_product", "minplus.product"),
    ("minplus", "max_plus_product", "minplus.product"),
    ("cli", "write_profile_csv", "profiles.write"),
    ("cli", "write_sums_csv", "profiles.write"),
    ("cli", "read_profile_csv", "profiles.read"),
    ("cli", "occurs", "profiles.occurs"),
    ("profiles", "occurs", "profiles.occurs"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))


def _product_cells(args, out):
    a, b = args[0], args[1]
    return {"minplus.product_cells": np.shape(a)[0] * np.shape(a)[1] * np.shape(b)[1]}


def _dp_array(args, out):
    return {"trees.dp_arrays": 1, "trees.dp_cells": int(np.size(out))}


# work counted at a boundary: (module, attribute, function of the call's
# arguments and result that gives {counter: amount})
COUNTS = (
    ("strings", "min_plus_product", _product_cells),
    ("strings", "max_plus_product", _product_cells),
    ("minplus", "min_plus_product", _product_cells),
    ("minplus", "max_plus_product", _product_cells),
    # every per-node DP array of both tree backends comes out of _combine
    ("trees", "_combine", _dp_array),
)


class Tracer:
    """Span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.session = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)  # (session, counter) -> total
        self.current_session = -1
        self._open = [-1]

    def span(self, name: str, fn):
        nid = SPAN_NAMES.index(name)

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.session.append(self.current_session)
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._open.pop()

        return traced

    def counter(self, count, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            for key, value in count(args, out).items():
                self.counts[(self.current_session, key)] += value
            return out

        return counted

    def install(self, modules: dict):
        """Wrap the package's attributes; returns a function that undoes it.
        An attribute the package no longer has is skipped, and its layer
        then reads zero."""
        saved = []
        wrapped = {}
        for mod, attr, count in COUNTS:
            fn = getattr(modules[mod], attr, None)
            if callable(fn):
                wrapped[(mod, attr)] = self.counter(count, fn)
        for mod, attr, name in SPANS:
            fn = wrapped.get((mod, attr), getattr(modules[mod], attr, None))
            if callable(fn):
                wrapped[(mod, attr)] = self.span(name, fn)
        for (mod, attr), fn in wrapped.items():
            saved.append((modules[mod], attr, getattr(modules[mod], attr)))
            setattr(modules[mod], attr, fn)

        def undo():
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

        return undo

    def self_times(self):
        """Per-span duration minus the part its child spans cover."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        covered = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        return dur - covered

    def session_summary(self, session: int) -> dict:
        """{span name: (calls, self seconds)} for one session."""
        names = np.frombuffer(self.name, dtype=np.int32)
        mask = np.frombuffer(self.session, dtype=np.int32) == session
        self_s = self.self_times()[mask]
        ids = names[mask]
        calls = np.bincount(ids, minlength=len(SPAN_NAMES))
        secs = np.bincount(ids, weights=self_s, minlength=len(SPAN_NAMES))
        return {name: (int(calls[k]), float(secs[k])) for k, name in enumerate(SPAN_NAMES)}

    def root_seconds(self, session: int, name: str) -> float:
        """Total duration of the outermost spans called ``name`` in a session."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        mask = ((np.frombuffer(self.session, dtype=np.int32) == session)
                & (np.frombuffer(self.parent, dtype=np.int32) == -1)
                & (np.frombuffer(self.name, dtype=np.int32) == SPAN_NAMES.index(name)))
        return float(dur[mask].sum())

    def write(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,session\n")
            for k in range(len(self.name)):
                fh.write(f"{k},{SPAN_NAMES[self.name[k]]},{self.start[k] - t0:.9f},"
                         f"{self.end[k] - t0:.9f},{self.parent[k]},{self.session[k]}\n")
