"""In-memory spans around calls into the program's layers.

The benchmark traces the program from outside: :func:`install` replaces
the public entry points listed in :data:`TARGETS` with wrappers that
record a :class:`Span` per call, and restores the originals on exit.
Nothing is patched unless a traced round asks for it, so untraced
rounds run the program exactly as shipped.

A span has a name, wall-clock start and end (``time.perf_counter``
seconds), the id of the span open when it started (its parent), the
request id the workload tagged it with, and free-form attributes.
Compile-stage spans are not timed here: they are copied out of the
:class:`~repro.pipeline.Trace` that each pipeline run returns, as
children of the ``pipeline.run`` span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Collects spans; the open-span stack gives each span its parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request: Optional[str] = None
        self._stack: List[Span] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    parent, self.request, dict(attrs))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must close innermost first"

    def child(self, parent: Span, name: str, start: float, end: float,
              **attrs) -> Span:
        """Record an already-timed span under ``parent``."""
        span = Span(len(self.spans), name, start, end, parent.id,
                    parent.request, dict(attrs))
        self.spans.append(span)
        return span

    def to_json(self) -> List[Dict[str, object]]:
        return [asdict(s) for s in self.spans]


def self_ms(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its direct children's."""
    out = {s.id: s.ms for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.ms
    return out


# -- wrappers -----------------------------------------------------------------


def _call_span(tracer: Tracer, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` so each call is one span; ``after(tracer, span,
    result)`` may add attributes or child spans once the call returned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            span.attrs["error"] = type(err).__name__
            raise
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer, span, result)
        return result

    return wrapper


def _stage_spans(tracer: Tracer, span: Span, trace, plan=None) -> None:
    """Copy a pipeline :class:`Trace` under ``span``, one child per stage."""
    span.attrs["pipeline"] = trace.pipeline
    memory = getattr(plan, "memory", None)
    for r in trace.records:
        attrs = dict(status=r.status, cache=r.cache, error=r.error,
                     counters=dict(r.counters))
        if r.stage == "plan" and memory is not None:
            attrs["arena_bytes"] = memory.arena_bytes
        tracer.child(span, f"stage.{r.stage}", span.start + r.t_start,
                     span.start + r.t_end, **attrs)


def _pipeline_run(tracer: Tracer, fn: Callable) -> Callable:
    """``Pipeline.run``: one span per build, its stages as children.

    A failing build raises with the partial trace on its diagnostic."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open("pipeline.run")
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            tracer.close(span)
            span.attrs["error"] = type(err).__name__
            diagnostic = getattr(err, "diagnostic", None)
            if diagnostic is not None:
                _stage_spans(tracer, span, diagnostic.trace)
            raise
        tracer.close(span)
        _stage_spans(tracer, span, result.trace, result.value("plan"))
        return result

    return wrapper


def _vinterp_run(tracer: Tracer, fn: Callable) -> Callable:
    """``VectorizedInterpreter.run``: one span per kernel run, tallying
    the band events that run appended to the interpreter's ``events``."""

    @functools.wraps(fn)
    def wrapper(self, kernel, *args, **kwargs):
        span = tracer.open("vinterp.run", kernel=kernel.name)
        n0 = len(self.events)
        try:
            return fn(self, kernel, *args, **kwargs)
        finally:
            tracer.close(span)
            kinds = Counter(ev.kind for ev in self.events[n0:])
            span.attrs.update(bands=sum(kinds.values()),
                              fallbacks=kinds.get("fallback", 0))

    return wrapper


def _sweep_attrs(tracer: Tracer, span: Span, summary) -> None:
    span.attrs.update(points=len(summary.points),
                      pruned=summary.pruned_static,
                      evaluated=summary.synthesized)


def _named(name: str, after: Optional[Callable] = None) -> Callable:
    return lambda tracer, fn: _call_span(tracer, name, fn, after)


#: (module, attribute path, wrapper factory) of every traced entry point
TARGETS = [
    ("repro.pipeline.pipeline", "Pipeline.run", _pipeline_run),
    ("repro.flow.dse", "sweep_conv1x1", _named("dse.sweep", _sweep_attrs)),
    ("repro.runtime.executor", "run_folded_functional", _named("executor.run")),
    ("repro.runtime.executor", "run_pipelined_functional",
     _named("executor.run")),
    ("repro.ir.vinterp", "VectorizedInterpreter.run", _vinterp_run),
    ("repro.serve.replica", "Replica.service_us",
     _named("simulate.service_us")),
    ("repro.serve.server", "Server.run", _named("serve.run")),
    # the CPU sideline's reference executor, as the replica module sees it
    ("repro.serve.replica", "run_fused_graph", _named("nn.reference")),
]


@contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every target for the duration of the block, then restore."""
    undo = []
    try:
        for module_name, path, factory in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            setattr(owner, attr, factory(tracer, original))
            undo.append((owner, attr, own, original))
        yield tracer
    finally:
        for owner, attr, own, original in reversed(undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
