"""Per-layer metrics of the traced run, derived from its spans.

Times are self times (a span's duration minus its children's) summed
over the window and divided by the workload's completed items (corpus
binaries swept, service requests, updated packages), so windows of
different length compare.  A layer the workload does not exercise
reports 0.
"""

from __future__ import annotations

from tracing import Span, self_times

#: name -> unit of every per-layer metric (BENCHMARK.json ``per_layer``)
PER_LAYER: dict[str, str] = {
    "x86.decode.s": "s/item",
    "x86.decode.calls": "count/item",
    "x86.decode.insns": "count/item",
    "cfg.build.s": "s/item",
    "cfg.indirect.s": "s/item",
    "cfg.indirect.iterations": "count/call",
    "cfg.sigfilter.s": "s/item",
    "cfg.sigfilter.kept_ratio": "ratio",
    "cfg.reach.s": "s/item",
    "core.sites.s": "s/item",
    "core.sites.count": "count/item",
    "core.wrappers.s": "s/item",
    "core.wrappers.calls": "count/item",
    "core.wrappers.confirmed_ratio": "ratio",
    "symex.identify.s": "s/item",
    "symex.identify.calls": "count/item",
    "symex.steps": "count/call",
    "symex.complete_ratio": "ratio",
    "iface.build.s": "s/item",
    "iface.build.calls": "count/item",
    "iface.hit_ratio": "ratio",
    "store.get.s": "s/item",
    "store.get.calls": "count/item",
    "store.put.s": "s/item",
    "store.put.calls": "count/item",
    "store.put.bytes": "B/item",
    "store.lookup.s": "s/item",
    "store.hit_ratio": "ratio",
    "inc.scan.s": "s/item",
    "inc.funcid.s": "s/item",
    "inc.functions_reanalyzed_ratio": "ratio",
    "inc.sites_reexecuted_ratio": "ratio",
    "fleet.warm.s": "s/item",
    "fleet.sweep.s": "s/item",
    "fleet.dedup_ratio": "ratio",
    "svc.submit.s": "s/item",
    "svc.wait.s": "s/item",
    "svc.polls_per_job": "count/job",
    "svc.filter.s": "s/item",
    "svc.route.s": "s/item",
    "svc.route.calls": "count/item",
    "svc.batch.s": "s/item",
    "svc.batch_size": "count/batch",
    "svc.queue_wait.s": "s/job",
    "svc.from_cache_ratio": "ratio",
    "filters.derive.s": "s/item",
    "trace.overhead.throughput": "ratio",
    "trace.overhead.p50": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _idle(spans: list[Span]) -> set[int]:
    """Ids of dispatcher steps that found no job, and their children:
    they are the executor waiting, not working."""
    idle = {s.id for s in spans
            if s.name == "svc.batch" and not s.attrs.get("batch_size")}
    return idle | {s.id for s in spans if s.parent in idle}


def layer_metrics(spans: list[Span], outcome, overhead: dict) -> dict:
    idle = _idle(spans)
    spans = [s for s in spans if s.id not in idle]
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    items = outcome.items

    def named(name):
        return by_name.get(name, [])

    def seconds(name):
        return _ratio(sum(selfs[s.id] for s in named(name)), items)

    def calls(name):
        return _ratio(len(named(name)), items)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def share(name, key):
        return _ratio(sum(bool(s.attrs.get(key)) for s in named(name)),
                      len(named(name)))

    # iface.build spans that built nothing (no cfg.build below them)
    parent_of = {s.id: s.parent for s in spans}
    building: set[int] = set()
    for span in named("cfg.build"):
        ancestor = span.parent
        while ancestor is not None:
            building.add(ancestor)
            ancestor = parent_of.get(ancestor)
    iface = named("iface.build")
    iface_hits = sum(s.id not in building for s in iface)

    gets, lookups = named("store.get"), named("store.lookup")
    store_hits = sum(bool(s.attrs.get("hit")) for s in gets + lookups)

    # queue wait: the job entering the queue to the dispatcher taking it.
    # Job ids restart with each round's daemon, so a take pairs with the
    # latest enqueue of its id that started before the take ended.
    enqueued: dict[str, list[Span]] = {}
    for span in sorted(named("svc.enqueue"), key=lambda s: s.start):
        enqueued.setdefault(span.trace, []).append(span)
    waits = []
    for take in named("svc.take"):
        for job in take.trace or ():
            earlier = [s for s in enqueued.get(job, ()) if s.start < take.end]
            if earlier:
                waits.append(max(0.0, take.end - earlier[-1].end))

    batches = named("svc.batch")
    counters = outcome.counters
    return {
        "x86.decode.s": seconds("x86.decode"),
        "x86.decode.calls": calls("x86.decode"),
        "x86.decode.insns": _ratio(attr_sum("x86.decode", "insns"), items),
        "cfg.build.s": seconds("cfg.build"),
        "cfg.indirect.s": seconds("cfg.indirect"),
        "cfg.indirect.iterations": _ratio(
            attr_sum("cfg.indirect", "iterations"), len(named("cfg.indirect"))
        ),
        "cfg.sigfilter.s": seconds("cfg.sigfilter"),
        "cfg.sigfilter.kept_ratio": _ratio(
            attr_sum("cfg.sigfilter", "kept"),
            attr_sum("cfg.sigfilter", "offered"),
        ),
        "cfg.reach.s": seconds("cfg.reach"),
        "core.sites.s": seconds("core.sites"),
        "core.sites.count": _ratio(attr_sum("core.sites", "sites"), items),
        "core.wrappers.s": seconds("core.wrappers"),
        "core.wrappers.calls": calls("core.wrappers"),
        "core.wrappers.confirmed_ratio": share("core.wrappers", "confirmed"),
        "symex.identify.s": seconds("symex.identify"),
        "symex.identify.calls": calls("symex.identify"),
        "symex.steps": _ratio(attr_sum("symex.identify", "steps"),
                              len(named("symex.identify"))),
        "symex.complete_ratio": share("symex.identify", "complete"),
        "iface.build.s": seconds("iface.build"),
        "iface.build.calls": calls("iface.build"),
        "iface.hit_ratio": _ratio(iface_hits, len(iface)),
        "store.get.s": seconds("store.get"),
        "store.get.calls": calls("store.get"),
        "store.put.s": seconds("store.put"),
        "store.put.calls": calls("store.put"),
        "store.put.bytes": _ratio(attr_sum("store.put", "bytes"), items),
        "store.lookup.s": seconds("store.lookup"),
        "store.hit_ratio": _ratio(store_hits, len(gets) + len(lookups)),
        "inc.scan.s": seconds("inc.scan"),
        "inc.funcid.s": seconds("inc.funcid"),
        "inc.functions_reanalyzed_ratio": _ratio(
            counters.get("functions_reanalyzed", 0),
            counters.get("functions_total", 0),
        ),
        "inc.sites_reexecuted_ratio": _ratio(
            counters.get("sites_reexecuted", 0), counters.get("sites_total", 0),
        ),
        "fleet.warm.s": seconds("fleet.warm"),
        "fleet.sweep.s": seconds("fleet.sweep"),
        "fleet.dedup_ratio": 1 - _ratio(
            attr_sum("fleet.sweep", "distinct"),
            attr_sum("fleet.sweep", "images"),
        ) if named("fleet.sweep") else 0.0,
        "svc.submit.s": seconds("svc.submit"),
        "svc.wait.s": seconds("svc.wait"),
        "svc.polls_per_job": _ratio(len(named("svc.poll")),
                                    len(named("svc.wait"))),
        "svc.filter.s": seconds("svc.filter"),
        # the enqueue runs inside the submit route
        "svc.route.s": seconds("svc.route") + seconds("svc.enqueue"),
        "svc.route.calls": calls("svc.route"),
        "svc.batch.s": seconds("svc.batch"),
        "svc.batch_size": _ratio(attr_sum("svc.batch", "batch_size"),
                                 len(batches)),
        "svc.queue_wait.s": _ratio(sum(waits), len(waits)),
        "svc.from_cache_ratio": _ratio(counters.get("from_cache", 0),
                                       counters.get("jobs", 0)),
        "filters.derive.s": seconds("filters.derive"),
        "trace.overhead.throughput": -overhead["throughput_per_s"],
        "trace.overhead.p50": overhead["p50_ms"],
    }
