"""The benchmark's three workloads: set-up, timed loop and oracles.

Each workload builds its inputs from ``seed`` alone, hands the program
only the generated binaries, times public entry points of ``repro`` from
the outside, and checks every output against an oracle.  A failed
operation (an exception, an HTTP error, a timed-out wait or an oracle
miss) is counted and the run goes on.

* ``fleet-cold`` -- one in-process ``FleetAnalyzer(workers=1)`` sweep of
  the Debian-like corpus into an empty on-disk artifact store, then a
  cold ``BSideAnalyzer.analyze`` of each of the six validation apps,
  scored against emulated ground truth built at set-up.
* ``service-mix`` -- rounds against an asyncio ``bside serve`` (local
  mode, one worker, a fresh daemon per round) driven as a closed loop by
  one client thread per CPU; each request is ``submit_bytes`` + ``wait``
  + ``filter`` with ``ServiceClient`` at its shipped defaults.
* ``update`` -- a package point release: each mutated package is
  re-analyzed by a fresh store-backed incremental analyzer (what
  ``bside analyze --cache-dir D --incremental`` does) against a pristine
  copy of the store populated from the previous release.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.core import AnalysisBudget, ArtifactStore, BSideAnalyzer
from repro.core.fleet import FleetAnalyzer
from repro.core.ifacecache import PersistentInterfaceStore
from repro.corpus import APP_NAMES, LIBC_NAME, build_app, build_libc
from repro.corpus import make_debian_corpus
from repro.corpus.mutate import find_sites as find_mutable_sites
from repro.corpus.mutate import mutate_program, mutate_regions
from repro.eval.groundtruth import GroundTruthBuilder
from repro.loader.image import LoadedImage
from repro.loader.resolve import LibraryResolver
from repro.metrics import score
from repro.perf.incbench import build_incremental_workload
from repro.service.aserver import AsyncServiceServer
from repro.service.client import ServiceClient
from repro.service.executor import AnalysisService

from hostspeed import HostSpeed

#: bound on every ``ServiceClient.wait`` (seconds)
WAIT_TIMEOUT = 30.0
#: bound on each round's report fetches of ``service-mix`` (seconds)
VERIFY_BUDGET = 30.0
#: failure descriptions kept for the report (the count is exact)
MAX_ERRORS = 20


@dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`DEFAULT` is the benchmark, :data:`TINY` the
    self-tests."""

    #: Debian-like corpus scale of ``fleet-cold`` (0.5 = 279 binaries, 229
    #: distinct).  Budget-hard binaries set most of a sweep's cost and the
    #: generator duplicates them: at 0.5 nearly every seed has 7 distinct
    #: ones, at 0.25 between 5 and 7, which moved throughput by 15%
    fleet_scale: float = 0.5
    #: corpus scale of the ``service-mix`` pool (0.25 = 55 dynamic,
    #: budget-easy binaries)
    service_scale: float = 0.25
    #: ``service-mix`` requests per round, per pool binary (3 makes about
    #: 70% of a round's requests repeats)
    service_draws: float = 3.0
    #: corpus scale ``update`` takes its packages from (0.15 = 66
    #: eligible binaries)
    update_scale: float = 0.15
    #: mutated corpus packages per release (one changed function each);
    #: ``None`` takes every eligible binary, so the package mix does not
    #: depend on the seed
    update_packages: int | None = None
    #: function counts of the many-function packages (three changed each)
    update_large: tuple[int, ...] = (368, 392, 416, 440)
    #: cold analyses of each validation app per ``fleet-cold`` round
    app_passes: int = 2


DEFAULT = Sizes()
TINY = Sizes(
    fleet_scale=0.03, service_scale=0.03, update_scale=0.03,
    update_packages=4, update_large=(24,), app_passes=1,
)


@dataclass
class Outcome:
    """What one timed window produced."""

    attempted: int = 0
    #: failed operations, oracle misses included
    failed: int = 0
    #: oracle misses: results that are wrong, not missing
    wrong: int = 0
    errors: list[str] = field(default_factory=list)
    #: units of work completed (binaries / requests / packages)
    items: int = 0
    throughput: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    successes: int = 0
    analyses: int = 0
    scores: list = field(default_factory=list)
    #: workload-specific figures printed next to the metrics
    extra: dict = field(default_factory=dict)
    #: counts a layer cannot report through a span (per-layer ratios)
    counters: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        """An operation that produced no result (exception, HTTP error,
        timed-out wait, failed analysis)."""
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(what)

    def miss(self, what: str) -> None:
        """An operation whose result its oracle rejects."""
        self.wrong += 1
        self.fail(what)

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value


def _fresh_corpus(scale: float, seed: int):
    """Generate the corpus without the generators' memo caches, so each
    set-up pays the full generation cost."""
    make_debian_corpus.cache_clear()
    build_libc.cache_clear()
    return make_debian_corpus(scale=scale, seed=seed)


def _write_dir(path: str, files: dict[str, bytes]) -> None:
    os.makedirs(path, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(path, name), "wb") as f:
            f.write(data)


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, work: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.provenance: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# fleet-cold
# ----------------------------------------------------------------------

@dataclass
class _App:
    name: str
    elf: bytes
    modules: list[tuple[str, bytes]]
    libraries: dict[str, bytes]
    truth: set[int]


class FleetCold(Workload):
    """Provider fleet build-out plus the §5.1 accuracy experiment."""

    name = "fleet-cold"

    def setup(self) -> None:
        corpus = _fresh_corpus(self.sizes.fleet_scale, self.seed)
        self.bindir = os.path.join(self.work, "bin")
        self.libdir = os.path.join(self.work, "lib")
        _write_dir(self.bindir, {
            b.name: b.program.elf_bytes for b in corpus.binaries
        })
        _write_dir(self.libdir, {
            name: prog.elf_bytes for name, prog in corpus.libraries.items()
        })
        self.planned = {b.name: b.planned_syscalls for b in corpus.binaries}
        distinct = len({b.image.content_hash for b in corpus.binaries})
        self.provenance = {
            "corpus_scale": self.sizes.fleet_scale,
            "binaries": len(corpus.binaries),
            "distinct_binaries": distinct,
            "duplicate_share": round(1 - distinct / len(corpus.binaries), 4),
            "libraries": len(corpus.libraries),
            "apps": list(APP_NAMES),
        }
        build_app.cache_clear()
        builder = GroundTruthBuilder()
        libc = {LIBC_NAME: build_libc().elf_bytes}
        self.apps = []
        for name in APP_NAMES:
            bundle = build_app(name)
            truth = builder.ground_truth(
                bundle.program.image, bundle.suite, bundle.resolver,
                extra_images=bundle.module_images,
            )
            self.apps.append(_App(
                name=name,
                elf=bundle.program.elf_bytes,
                modules=[(m.name, m.elf_bytes) for m in bundle.modules],
                libraries=libc,
                truth=set(truth.syscalls),
            ))

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        host = HostSpeed(self.work)
        rates: list[float] = []
        n_bins = len(self.planned)
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            rounds += 1
            store = os.path.join(self.work, f"store-{rounds}")
            out.attempted += n_bins
            try:
                host.start()
                t0 = time.perf_counter()
                fleet = FleetAnalyzer(
                    resolver=LibraryResolver(search_dir=self.libdir),
                    workers=1, cache_dir=store,
                )
                report = fleet.analyze_directory(self.bindir)
                sweep = (time.perf_counter() - t0) * host.factor()
            except Exception as error:  # counted, the run goes on
                out.failed += n_bins - 1
                out.fail(f"fleet sweep raised {error!r}")
                continue
            finally:
                shutil.rmtree(store, ignore_errors=True)
            rates.append(len(report.entries) / sweep)
            self._check_sweep(report, out)
            for __ in range(self.sizes.app_passes):
                for app in self.apps:
                    self._analyze_app(app, out, host)
        out.throughput = statistics.median(rates) if rates else 0.0
        out.extra["rounds"] = rounds
        out.extra["host_speed"] = statistics.median(host.factors)
        return out

    def _check_sweep(self, report, out: Outcome) -> None:
        seen = {entry.name for entry in report.entries}
        for name in set(self.planned) - seen:
            out.miss(f"{name}: missing from the fleet report")
        for entry in report.entries:
            out.items += 1
            out.analyses += 1
            planned = self.planned.get(entry.name)
            if planned is None:
                out.miss(f"{entry.name}: not a corpus binary")
                continue
            if not entry.report.success:
                continue
            out.successes += 1
            if not planned <= entry.report.syscalls:
                out.miss(f"{entry.name}: report misses planned syscalls "
                         f"{sorted(planned - entry.report.syscalls)}")

    def _analyze_app(self, app: _App, out: Outcome, host: HostSpeed) -> None:
        out.attempted += 1
        try:
            t0 = time.perf_counter()
            analyzer = BSideAnalyzer(
                resolver=LibraryResolver(library_map=app.libraries),
                budget=AnalysisBudget.generous(),
            )
            report = analyzer.analyze(
                LoadedImage.from_bytes(app.name, app.elf),
                modules=[LoadedImage.from_bytes(n, b) for n, b in app.modules],
            )
            elapsed = time.perf_counter() - t0
            out.latencies_ms.append(1000 * elapsed * host.factor())
        except Exception as error:
            out.fail(f"{app.name}: analyze raised {error!r}")
            return
        if not report.success:
            out.fail(f"{app.name}: analysis failed in {report.failure_stage}")
            return
        result = score(report.syscalls, app.truth)
        out.scores.append(result)
        if result.recall != 1.0:
            out.miss(f"{app.name}: recall {result.recall:.4f} != 1.0")


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------

@dataclass
class _PoolBinary:
    name: str
    data: bytes
    planned: set[int]


class ServiceMix(Workload):
    """The seccomp-installer path: many clients, mostly repeat binaries.

    The window is a sequence of rounds.  Each round starts a daemon over
    an empty state directory and sends it a fixed number of requests
    (:attr:`Sizes.service_draws` per pool binary), so the share of
    requests that repeat an earlier binary is set by the seed, not by
    how many requests the program manages to answer in the window.
    """

    name = "service-mix"

    def setup(self) -> None:
        corpus = _fresh_corpus(self.sizes.service_scale, self.seed)
        self.libdir = os.path.join(self.work, "lib")
        _write_dir(self.libdir, {
            name: prog.elf_bytes for name, prog in corpus.libraries.items()
        })
        # Dynamic, budget-easy binaries only.  A repeat of a static binary
        # is answered before the client's first poll about 80% of the time,
        # a dynamic one about 25%; mixed, the two modes (no poll, one 50 ms
        # poll) came out near half and half, and the median flipped between
        # them with the host's speed.  A budget-hard binary's cold analysis
        # runs the kernels to the budget: with them in the pool the kernels,
        # not the service path, set the request rate, and it followed the
        # host's speed.
        self.pool = [
            _PoolBinary(b.name, b.program.elf_bytes, b.planned_syscalls)
            for b in corpus.dynamic_binaries if b.hardness is None
        ]
        self.clients = len(os.sched_getaffinity(0))
        self.per_client = max(1, round(
            self.sizes.service_draws * len(self.pool) / self.clients
        ))
        self.provenance = {
            "corpus_scale": self.sizes.service_scale,
            "pool_binaries": len(self.pool),
            "pool_distinct": len({b.data for b in self.pool}),
            "clients": self.clients,
            "requests_per_round": self.per_client * self.clients,
            "loop": "closed",
        }
        self._rounds = 0
        # one daemon start and stop, so set-up pays the service's
        # start-up cost the way a first deployment does
        self._start_server().stop()

    def _start_server(self) -> AsyncServiceServer:
        """A new daemon over an empty state directory (cold report cache)."""
        self._rounds += 1
        state = os.path.join(self.work, f"state-{self._rounds}")
        service = AnalysisService(state, workers=1, libdir=self.libdir)
        server = AsyncServiceServer(service, port=0)
        server.start()
        try:
            ServiceClient(server.url).health()
        except BaseException:
            server.stop()
            raise
        return server

    def measure(self, seconds: float) -> Outcome:
        """Whole rounds until ``seconds`` have passed (the round under
        way at the deadline is finished)."""
        out = Outcome()
        deadline = time.perf_counter() + seconds
        busy = 0.0
        seen: set[bytes] = set()
        repeats = rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            rounds += 1
            server = None
            try:
                server = self._start_server()
                draws = []
                for i in range(self.clients):
                    rng = random.Random(f"{self.seed}/{rounds}/{i}")
                    draws.append([rng.randrange(len(self.pool))
                                  for _ in range(self.per_client)])
                done, elapsed = self._round(server.url, draws, out)
                busy += elapsed
                self._verify_round(server.url, done, out)
            except Exception as error:  # counted, the run goes on
                out.attempted += 1
                out.fail(f"round raised {error!r}")
                continue
            finally:
                if server is not None:
                    server.stop()
            round_seen: set[bytes] = set()
            for __, pick, *___ in sorted(done, key=lambda r: r[0]):
                data = self.pool[pick].data
                repeats += data in round_seen
                round_seen.add(data)
                seen.add(data)
        out.throughput = out.items / busy if busy else 0.0
        requests = out.counters.get("jobs", 0)
        self.provenance["rounds"] = rounds
        self.provenance["requests"] = requests
        self.provenance["repeat_share"] = (
            round(repeats / requests, 4) if requests else 0.0
        )
        self.provenance["distinct_binaries_seen"] = len(seen)
        return out

    def _round(self, url: str, draws: list[list[int]],
               out: Outcome) -> tuple[list, float]:
        """Run one round's clients; returns the completed requests and
        the round's wall time."""
        lock = threading.Lock()
        done: list = []

        def client_loop(picks: list[int]) -> None:
            client = ServiceClient(url)
            for pick in picks:
                binary = self.pool[pick]
                t0 = time.perf_counter()
                try:
                    job = client.submit_bytes(binary.name, binary.data)
                    status = client.wait(job["id"], timeout=WAIT_TIMEOUT)
                    if status["status"] != "done":
                        raise RuntimeError(f"job {status['status']}: "
                                           f"{status.get('error', '')}")
                    filt = client.filter(job["id"])
                    latency = time.perf_counter() - t0
                except Exception as error:
                    with lock:
                        out.attempted += 1
                        out.fail(f"{binary.name}: {error!r}")
                    continue
                with lock:
                    out.attempted += 1
                    out.latencies_ms.append(1000 * latency)
                    done.append((t0, pick, job["id"], filt,
                                 status.get("metrics", {})))

        threads = [
            threading.Thread(target=client_loop, args=(picks,), daemon=True,
                             name=f"perfbench-client-{i}")
            for i, picks in enumerate(draws)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        limit = started + len(draws[0]) * WAIT_TIMEOUT
        for thread in threads:
            thread.join(max(0.0, limit - time.perf_counter()))
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        elapsed = time.perf_counter() - started
        with lock:
            out.items += len(done)
            return list(done), elapsed

    def _verify_round(self, url: str, done: list, out: Outcome) -> None:
        """Check every completed request of a round against its oracle
        (after the round's clients stopped, before its daemon does)."""
        client = ServiceClient(url)
        deadline = time.perf_counter() + VERIFY_BUDGET
        for __, pick, job_id, filt, metrics in done:
            binary = self.pool[pick]
            out.count("from_cache", bool(metrics.get("from_cache")))
            out.count("jobs", 1)
            if time.perf_counter() > deadline:
                out.fail(f"{binary.name}: report not checked within "
                         f"{VERIFY_BUDGET:g}s")
                continue
            try:
                report = client.report(job_id)
            except Exception as error:
                out.fail(f"{binary.name}: report fetch raised {error!r}")
                continue
            syscalls = set(report.get("syscalls", []))
            allowed = set(filt.get("allowed", []))
            out.analyses += 1
            if not syscalls <= allowed:
                out.miss(f"{binary.name}: filter does not cover the report")
            if not report.get("success"):
                continue
            out.successes += 1
            if not binary.planned <= syscalls:
                out.miss(f"{binary.name}: report misses planned syscalls "
                         f"{sorted(binary.planned - syscalls)}")
                continue
            out.scores.append(score(syscalls, binary.planned))


# ----------------------------------------------------------------------
# update
# ----------------------------------------------------------------------

@dataclass
class _Package:
    name: str
    v1: bytes
    v2: bytes
    #: syscall numbers the mutator wrote in
    written: set[int]
    #: cold report of the v2 bytes (runtime fields stripped)
    cold_json: str = ""
    #: planned syscalls of v2 (corpus packages only)
    reference: set[int] | None = None
    functions_changed: int = 0
    #: function regions of the package (from the v1 analysis)
    functions: int = 0


class Update(Workload):
    """A package point release over a store built from the old release."""

    name = "update"

    def _analyzer(self, store: str | None) -> BSideAnalyzer:
        resolver = LibraryResolver(search_dir=self.libdir)
        # generous(): the many-function packages exceed the default
        # per-run wrapper-confirmation budget (as in perf/incbench.py).
        budget = AnalysisBudget.generous()
        if store is None:
            return BSideAnalyzer(resolver=resolver, budget=budget)
        artifacts = ArtifactStore(store)
        return BSideAnalyzer(
            resolver=resolver, budget=budget,
            interface_store=PersistentInterfaceStore(store=artifacts),
            artifact_store=artifacts, incremental=True,
        )

    def setup(self) -> None:
        corpus = _fresh_corpus(self.sizes.update_scale, self.seed)
        self.libdir = os.path.join(self.work, "lib")
        _write_dir(self.libdir, {
            name: prog.elf_bytes for name, prog in corpus.libraries.items()
        })
        rng = random.Random(self.seed)
        # Distinct bytes only (a duplicate would be served from the report
        # cache, not re-analyzed), and no budget-hard binaries: both
        # releases of those fail the same budget, so they exercise no reuse.
        seen: set[str] = set()
        candidates = []
        for b in corpus.binaries:
            digest = b.image.content_hash
            if b.hardness is None and digest not in seen:
                seen.add(digest)
                candidates.append(b)
        rng.shuffle(candidates)
        self.packages: list[_Package] = []
        for b in candidates:
            if len(self.packages) == self.sizes.update_packages:
                break
            # The generator's dead code (``*.dead_handler``) is not in the
            # plan, so an edit there need not show in the report: edit one
            # planned-live function.
            dead = {sym.value for fname, sym in b.image.functions_by_name.items()
                    if ".dead_" in fname}
            live = sorted(set(find_mutable_sites(b.image)) - dead)
            if not live:
                continue
            mutation = mutate_regions(
                b.program.elf_bytes, b.name, [rng.choice(live)],
                seed=rng.randrange(1 << 30),
            )
            self.packages.append(self._package(
                b.name, b.program.elf_bytes, mutation, b.planned_syscalls,
            ))
        for n_funcs in self.sizes.update_large:
            prog = build_incremental_workload(n_funcs)
            name = f"incbench-{n_funcs}"
            mutation = mutate_program(
                prog.elf_bytes, name, 3, seed=rng.randrange(1 << 30),
            )
            self.packages.append(self._package(
                name, prog.elf_bytes, mutation, None,
            ))
        self.v1_store = os.path.join(self.work, "v1-store")
        # one store-less analyzer: its in-memory library interfaces are
        # shared, every binary is still analyzed from scratch
        cold_analyzer = self._analyzer(None)
        for pkg in self.packages:
            pkg.functions = self._analyzer(self.v1_store).analyze(
                LoadedImage.from_bytes(pkg.name, pkg.v1)
            ).functions_total
            cold = cold_analyzer.analyze(
                LoadedImage.from_bytes(pkg.name, pkg.v2)
            )
            pkg.cold_json = cold.to_json(include_runtime=False)
        self.v1_snapshot = _snapshot(self.v1_store)
        sizes = [p.functions for p in self.packages]
        self.provenance = {
            "corpus_scale": self.sizes.update_scale,
            "packages": len(self.packages),
            "corpus_packages": len(self.packages) - len(self.sizes.update_large),
            "large_packages": list(self.sizes.update_large),
            "functions_changed": sorted(
                {p.functions_changed for p in self.packages}
            ),
            "functions_changed_total": sum(
                p.functions_changed for p in self.packages
            ),
            "function_count_min": min(sizes),
            "function_count_median": statistics.median(sizes),
            "function_count_max": max(sizes),
        }

    @staticmethod
    def _package(name: str, v1: bytes, mutation, planned) -> _Package:
        written = {s.new_value for s in mutation.sites if s.mnemonic == "mov"}
        reference = None
        if planned is not None:
            removed = {s.old_value for s in mutation.sites
                       if s.mnemonic == "mov"}
            reference = (set(planned) - removed) | written
        return _Package(
            name=name, v1=v1, v2=mutation.elf_bytes, written=written,
            reference=reference, functions_changed=len(mutation.changed),
        )

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        host = HostSpeed(self.work)
        round_times: list[float] = []
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            rounds += 1
            store = os.path.join(self.work, f"store-{rounds}")
            # Hard links: the store replaces entries by rename and never
            # writes a file in place, so the copy shares no mutable file
            # with the v1 store (the snapshot check below proves it).
            shutil.copytree(self.v1_store, store, copy_function=os.link)
            host.start()
            try:
                round_times.append(sum(
                    self._reanalyze(pkg, store, out, host)
                    for pkg in self.packages
                ))
            finally:
                shutil.rmtree(store, ignore_errors=True)
        if _snapshot(self.v1_store) != self.v1_snapshot:
            out.miss("the v1 store was modified through a round's copy")
        update_s = statistics.median(round_times)
        out.throughput = len(self.packages) / update_s if update_s else 0.0
        out.extra["rounds"] = rounds
        out.extra["update_s"] = update_s
        out.extra["host_speed"] = statistics.median(host.factors)
        return out

    def _reanalyze(self, pkg: _Package, store: str, out: Outcome,
                   host: HostSpeed) -> float:
        """Re-analyze one package; returns its host-speed-adjusted time."""
        out.attempted += 1
        try:
            t0 = time.perf_counter()
            report = self._analyzer(store).analyze(
                LoadedImage.from_bytes(pkg.name, pkg.v2)
            )
            elapsed = (time.perf_counter() - t0) * host.factor()
        except Exception as error:
            out.fail(f"{pkg.name}: re-analysis raised {error!r}")
            return 0.0
        out.items += 1
        out.analyses += 1
        out.latencies_ms.append(1000 * elapsed)
        out.count("functions_total", report.functions_total)
        out.count("functions_reanalyzed", report.functions_reanalyzed)
        out.count("sites_total", report.sites_total)
        out.count("sites_reexecuted", report.sites_reexecuted)
        if report.to_json(include_runtime=False) != pkg.cold_json:
            out.miss(f"{pkg.name}: incremental report differs from cold")
            return elapsed
        if not report.success:
            out.fail(f"{pkg.name}: analysis failed in {report.failure_stage}")
            return elapsed
        out.successes += 1
        if not pkg.written <= report.syscalls:
            out.miss(f"{pkg.name}: report misses written syscalls "
                     f"{sorted(pkg.written - report.syscalls)}")
            return elapsed
        if pkg.reference is not None:
            if not pkg.reference <= report.syscalls:
                out.miss(f"{pkg.name}: report misses planned syscalls")
                return elapsed
            out.scores.append(score(report.syscalls, pkg.reference))
        return elapsed


def _snapshot(directory: str) -> dict[str, tuple[int, int]]:
    return {
        entry.name: (entry.stat().st_size, entry.stat().st_mtime_ns)
        for entry in os.scandir(directory)
    }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FleetCold, ServiceMix, Update)
}
