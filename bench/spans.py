"""Span tracing around calls into kscontext's public functions.

The package itself is not edited: `instrument` rebinds each traced name in
the module namespaces that call it (for example `is_orthogonal` inside
`kscontext.contexts`), records a span per call, and restores the original
bindings on exit.  Spans stay in memory; `Tracer.summary` turns them into
per-function self times (a span minus its child spans) and counters.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from typing import Callable

Observer = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """In-memory span recorder for one run id.

    A span is [name, start, end, parent index, run id, paused seconds];
    roots have parent None.  `paused` returns a running total of time
    spent outside the traced program (the host-speed probe), which is
    taken out of every span it falls in.  Counters are bumped by observers
    that look at call results.
    """

    def __init__(self, run_id: str, paused: Callable[[], float] = lambda: 0.0):
        self.run_id = run_id
        self.paused = paused
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.contexts_found: list[int] = []   # sizes of discovered context lists
        self.missing: list[str] = []          # targets absent from the package
        self._stack: list[int] = []

    def wrap(self, fn, name: str | Callable[[tuple, dict], str],
             observe: Observer | None = None):
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            paused = self.paused()
            span = [span_name, time.perf_counter(), None, parent, self.run_id,
                    None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[5] = self.paused() - paused
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds by span name, inclusive seconds by span name),
        paused time excluded."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, paused in self.spans:
            if parent is not None:
                child_time[parent] += end - start - paused
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, paused) in enumerate(self.spans):
            own[name] += end - start - paused - child_time[i]
            total[name] += end - start - paused
        return dict(own), dict(total)


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------

def _count_pairs(tracer, args, kwargs, result):
    tracer.counters["linalg.pairs_tested"] += 1
    tracer.counters["linalg.pairs_orthogonal"] += bool(result)


def _count_edges(tracer, args, kwargs, result):
    tracer.counters["contexts.edges"] += sum(map(len, result.values())) // 2


def _count_contexts(tracer, args, kwargs, result):
    tracer.counters["contexts.maximal_contexts"] += len(result)
    tracer.contexts_found.append(len(result))


def _count_projectors(tracer, args, kwargs, result):
    tracer.counters["linalg.projectors"] += 1


def _count_nodes(tracer, args, kwargs, result):
    tracer.counters["search.nodes"] += result.nodes_explored


def _count_pins(tracer, args, kwargs, result):
    tracer.counters["search.pins"] += 2 * len(result)


def _count_gaps(tracer, args, kwargs, result):
    tracer.counters["valuation.gaps"] += len(result.gaps)


def _search_mode(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "first")
    return f"search.{mode}"


# (module, name bound in it, span name, observer)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "find_maximal_contexts", "contexts.find_maximal_contexts",
     _count_contexts),
    ("cli", "validate_context", "contexts.validate_context", None),
    ("cli", "admissible_assignments", _search_mode, _count_nodes),
    ("cli", "localized_indefiniteness_certificate", "search.localize_certificate",
     _count_pins),
    ("cli", "born_value", "valuation.born_value", None),
    ("cli", "localize_indefiniteness", "valuation.localize_indefiniteness",
     _count_gaps),
    ("corpus", "parse", "corpus.parse", None),
    ("corpus", "to_projector_set", "corpus.to_projector_set", None),
    ("corpus", "emit", "corpus.emit", None),
    ("corpus", "projector_from_span", "linalg.projector_from_span",
     _count_projectors),
    ("corpus", "ProjectorSet", "contexts.projector_set", None),
    ("contexts", "is_orthogonal", "linalg.is_orthogonal", _count_pairs),
    ("contexts", "orthogonality_graph", "contexts.orthogonality_graph",
     _count_edges),
    ("contexts", "validate_context", "contexts.validate_context", None),
    ("search", "find_maximal_contexts", "contexts.find_maximal_contexts",
     _count_contexts),
    ("search", "orthogonality_graph", "contexts.orthogonality_graph",
     _count_edges),
    ("valuation", "find_maximal_contexts", "contexts.find_maximal_contexts",
     _count_contexts),
    ("valuation", "evaluate_bivalent", "valuation.evaluate_bivalent", None),
    ("valuation", "column_space", "linalg.column_space", None),
    ("valuation", "null_space", "linalg.null_space", None),
    ("valuation", "member", "linalg.member", None),
]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every target while the block runs, then restore the bindings.

    A target the package no longer has is listed in `tracer.missing`
    instead of failing, so a renamed function shows up as untraced.
    """
    saved = []
    try:
        for module_name, attr, name, observe in TARGETS:
            module = importlib.import_module(f"kscontext.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing.append(f"kscontext.{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, observe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
