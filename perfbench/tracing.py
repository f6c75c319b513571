"""Span recorder and the layer instrumentation table of the benchmark.

The traced run wraps the public functions of each layer, *as bound in the
module that calls them* (``repro.core.pipeline.build_cfg``, not
``repro.cfg.builder.build_cfg``), with a span that records its start, end,
parent span, thread and job id.  Nothing under ``src/`` is edited: the
wrappers are installed by :class:`Instrumentation` only while tracing and
the original objects are put back when it exits.

Spans are kept in memory and written out once, when the run ends.  A
span's self time is its duration minus the part of it covered by its
child spans (spans opened on the same thread while it was open).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    #: job id (a string) or the ids of a batch (a list); inherited by
    #: child spans opened while this one is open
    trace: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe, in-memory span collector."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            id=span_id,
            parent=parent.id if parent is not None else None,
            name=name,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            trace=parent.trace if parent is not None else None,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def write(self, path: str, meta: dict) -> None:
        """Write ``meta`` and every span as one JSON document (called
        once, when the run ends)."""
        with self._lock:
            spans = list(self.spans)
        doc = [
            {
                "id": s.id, "parent": s.parent, "name": s.name,
                "thread": s.thread, "start": s.start, "end": s.end,
                "trace": s.trace, "attrs": s.attrs,
            }
            for s in spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"meta": meta, "spans": doc}, f)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = max(0.0, span.duration - covered)
    return out


# ----------------------------------------------------------------------
# Attribute hooks: called after the wrapped function returns, with the
# call's arguments and result, to record counts where the work happens.
# ----------------------------------------------------------------------

def _count_insns(span, args, kwargs, result):
    span.attrs["insns"] = len(result)


def _iterations(span, args, kwargs, result):
    span.attrs["iterations"] = result[1]


def _kept(span, args, kwargs, result):
    span.attrs["offered"] = len(args[1])
    span.attrs["kept"] = len(result)


def _sites(span, args, kwargs, result):
    span.attrs["sites"] = len(result)


def _confirmed(span, args, kwargs, result):
    span.attrs["confirmed"] = result is not None


def _symex(span, args, kwargs, result):
    span.attrs["steps"] = result.steps_used
    span.attrs["complete"] = bool(result.complete)


def _store_hit(span, args, kwargs, result):
    span.attrs["kind"] = args[1]
    span.attrs["hit"] = result is not None


def _store_put(span, args, kwargs, result):
    store, kind, name, payload = args[:4]
    span.attrs["kind"] = kind
    try:
        # the entry file as written (envelope and formatting included)
        span.attrs["bytes"] = os.path.getsize(store._path(kind, name))
    except (AttributeError, OSError):
        span.attrs["bytes"] = len(json.dumps(payload))


def _dedup(span, args, kwargs, result):
    images = args[1]
    span.attrs["images"] = len(images)
    span.attrs["distinct"] = len({image.content_hash for image in images})


def _job_from_result(span, args, kwargs, result):
    span.trace = result["id"]


def _job_from_job(span, args, kwargs, result):
    span.trace = result.id


def _job_from_arg(span, args, kwargs, result):
    span.trace = args[1]


def _route(span, args, kwargs, result):
    method, path = args[1], args[2]
    span.attrs["method"] = method
    parts = [p for p in path.split("?")[0].split("/") if p]
    if method == "POST" and result.status == 202:
        span.trace = result.doc["job"]["id"]
    elif len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
        span.trace = parts[2]


def _batch_size(span, args, kwargs, result):
    span.attrs["batch_size"] = result


def _take(span, args, kwargs, result):
    span.trace = [job.id for job in result]


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``module:qualname`` -> span ``name``."""

    module: str
    qualname: str
    name: str
    hook: object = None


#: Every layer boundary the traced run records, as bound in its caller.
PROBES: tuple[Probe, ...] = (
    Probe("repro.cfg.builder", "decode_all", "x86.decode", _count_insns),
    Probe("repro.core.pipeline", "decode_all", "x86.decode", _count_insns),
    Probe("repro.core.pipeline", "build_cfg", "cfg.build"),
    Probe("repro.core.pipeline", "resolve_indirect_active", "cfg.indirect",
          _iterations),
    Probe("repro.cfg.indirect", "filter_targets", "cfg.sigfilter", _kept),
    Probe("repro.core.pipeline", "reachable_blocks", "cfg.reach"),
    Probe("repro.core.pipeline", "find_sites", "core.sites", _sites),
    Probe("repro.core.pipeline", "detect_wrapper", "core.wrappers", _confirmed),
    Probe("repro.core.pipeline", "identify_plain_site", "symex.identify",
          _symex),
    Probe("repro.core.pipeline", "identify_wrapper_call_site",
          "symex.identify", _symex),
    Probe("repro.core.analyzer", "BSideAnalyzer.analyze_library",
          "iface.build"),
    Probe("repro.core.artifacts", "ArtifactStore.get", "store.get",
          _store_hit),
    Probe("repro.core.artifacts", "ArtifactStore.put", "store.put",
          _store_put),
    Probe("repro.core.artifacts", "ArtifactStore.lookup", "store.lookup",
          _store_hit),
    Probe("repro.core.pipeline", "scan_image", "inc.scan"),
    Probe("repro.core.funcid", "FuncidState.probe", "inc.funcid"),
    Probe("repro.core.funcid", "FuncidState.flush", "inc.funcid"),
    Probe("repro.core.fleet", "FleetAnalyzer.warm_interfaces", "fleet.warm"),
    Probe("repro.core.fleet", "FleetAnalyzer.analyze_images", "fleet.sweep",
          _dedup),
    Probe("repro.service.client", "ServiceClient.submit_bytes", "svc.submit",
          _job_from_result),
    Probe("repro.service.client", "ServiceClient.wait", "svc.wait",
          _job_from_arg),
    Probe("repro.service.client", "ServiceClient.job", "svc.poll",
          _job_from_arg),
    Probe("repro.service.client", "ServiceClient.filter", "svc.filter",
          _job_from_arg),
    Probe("repro.service.aserver", "handle_request", "svc.route", _route),
    Probe("repro.service.executor", "AnalysisService.step", "svc.batch",
          _batch_size),
    Probe("repro.service.jobs", "JobQueue.submit", "svc.enqueue",
          _job_from_job),
    Probe("repro.service.jobs", "JobQueue.take_batch", "svc.take", _take),
    Probe("repro.filters.seccomp", "FilterProgram.from_report",
          "filters.derive"),
)


def _resolve(probe: Probe) -> tuple[object, str]:
    """The object holding the probed attribute, and the attribute name."""
    owner = importlib.import_module(probe.module)
    *path, attr = probe.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _traced(recorder: SpanRecorder, func, name: str, hook):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.end(span)
        if hook is not None:
            hook(span, args, kwargs, result)
        return result
    return traced


class Instrumentation:
    """Context manager: wrap every probe on entry, restore on exit."""

    def __init__(self, recorder: SpanRecorder,
                 probes: tuple[Probe, ...] = PROBES) -> None:
        self.recorder = recorder
        self.probes = probes
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for probe in self.probes:
                owner, attr = _resolve(probe)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_traced(
                        self.recorder, raw.__func__, probe.name, probe.hook,
                    ))
                else:
                    wrapped = _traced(self.recorder, raw, probe.name, probe.hook)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __exit__(self, *exc) -> None:
        self.restore()


def originals(probes: tuple[Probe, ...] = PROBES) -> dict[str, object]:
    """``module:qualname`` -> the object currently bound there."""
    out = {}
    for probe in probes:
        owner, attr = _resolve(probe)
        out[f"{probe.module}:{probe.qualname}"] = vars(owner)[attr]
    return out
