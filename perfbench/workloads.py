"""The four benchmark workloads: explore, simulate, campaign, serve.

Each workload builds its inputs from the run seed in :meth:`setup`,
then runs *rounds*: a round is one fixed set of requests in a closed
loop (the next request starts when the previous one has returned and
been checked).  Every round makes the same kinds of request, so each
kind is timed once per round.  A round reports, per request, its kind,
wall time and the work it completed; the operations it checked and how
many of them failed; and the per-layer counters that the program's
public outputs carry.

Why each workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


def derive(seed: int, label: str) -> int:
    """A positive 31-bit seed for ``label``, a pure function of ``seed``."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return (int.from_bytes(digest[:4], "big") & 0x7FFFFFFF) or 1


def digest_of(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


@dataclass
class Round:
    #: Seconds the round was measured for.
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: (kind, wall seconds, work completed in the workload's item unit)
    #: of each request in the round.
    requests: List[Tuple[str, float, float]] = field(default_factory=list)
    #: Per-layer counters read from the program's public outputs.
    layer: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def request(self, kind: str, seconds: float, items: float) -> None:
        self.requests.append((kind, seconds, items))


class Workload:
    name = ""
    #: Name and unit the throughput is printed under.
    rate_name = ""
    item_unit = ""
    #: Name the request latency median is printed under.
    latency_name = ""
    #: Whether the traced round replays round 0 (identical work) or
    #: continues the request stream.
    replay = True
    #: Rounds every run measures, however long they take; each kind of
    #: request is timed once per round.
    min_rounds = 1

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        #: The tracer while the traced round runs, else None.
        self.tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def worker_rss_mb(self) -> float:
        return 0.0

    def cross_check(self) -> Round:
        """Extra checks for the traced run."""
        return Round()


# -- explore ----------------------------------------------------------

class Explore(Workload):
    """Closed-loop exhaustive ``tune()`` over 8 configs x 4 programs."""

    name = "explore"
    rate_name, item_unit = "cands_per_s", "candidates/s"
    latency_name = "explore_p50_s"

    def setup(self) -> None:
        from repro.autotune import SearchSpace, field_axis
        from repro.config.presets import DEFAULT_CONFIG
        from repro.workloads import (
            aes_workload, dct_workload, dijkstra_workload, sha_workload,
        )

        # The sizes repro.harness.cli.quick_specs uses, reseeded.
        self.specs = [
            sha_workload(16, 16, derive(self.seed, "explore/sha")),
            aes_workload(5),
            dct_workload(16, 16, derive(self.seed, "explore/dct")),
            dijkstra_workload(12, 35, derive(self.seed, "explore/dijkstra")),
        ]
        self.space = SearchSpace(DEFAULT_CONFIG, [
            field_axis("n_alus", (1, 2, 3, 4)),
            field_axis("regfile_ops_per_cycle", (4, 8)),
        ])

    def run_round(self, index: int) -> Round:
        from repro.autotune import CandidateEvaluator, TuneArchive, tune
        from repro.autotune.archive import STATUS_OK

        result = Round()
        items = 0
        started = time.perf_counter()
        for spec in self.specs:
            archive = TuneArchive()
            evaluator = CandidateEvaluator(spec, archive, validate=True)
            report = tune(self.space, evaluator, archive,
                          strategy="exhaustive",
                          seed=derive(self.seed, "explore/tune"))
            for row in report["evaluations"]:
                result.attempted += 1
                if row["status"] != STATUS_OK or \
                        "cycles" not in row.get("metrics", {}):
                    result.fail(f"{spec.name} {row['describe']}: "
                                f"{row['status']} {row.get('detail')}")
                else:
                    items += 1
                if str(row.get("detail", "")).startswith("pruned"):
                    result.layer["autotune.pruned"] = \
                        result.layer.get("autotune.pruned", 0) + 1
        result.seconds = time.perf_counter() - started
        # One request is the whole exploration: the four tune() calls
        # differ ~30x in length, so the median of them would only pick
        # between the two middle programs.
        result.request("explore", result.seconds, items)
        result.layer["autotune.candidates"] = result.attempted
        result.layer.setdefault("autotune.pruned", 0)
        return result


# -- simulate ---------------------------------------------------------

class Simulate(Workload):
    """Fresh program + fresh processor per run; compiled in set-up."""

    name = "simulate"
    rate_name, item_unit = "sim_mcycles_per_s", "Mcycles/s"
    latency_name = "design_p50_s"
    min_rounds = 3

    def setup(self) -> None:
        from repro.backend.epic import compile_minic_to_epic
        from repro.config.presets import epic_with_alus
        from repro.workloads import (
            aes_workload, dct_workload, dijkstra_workload, sha_workload,
        )

        specs = [
            sha_workload(32, 32, derive(self.seed, "simulate/sha")),
            aes_workload(),
            dct_workload(32, 32, derive(self.seed, "simulate/dct")),
            dijkstra_workload(24, 35, derive(self.seed, "simulate/dijkstra")),
        ]
        self.pairs = []
        for spec in specs:
            for n_alus in (2, 4):
                config = epic_with_alus(n_alus)
                self.pairs.append((spec, config, compile_minic_to_epic(
                    spec.source, config)))
        #: Stats-fingerprint digest per pair, from its first run.
        self.prints: Dict[int, str] = {}

    def _simulate(self, position: int, engine: str, result: Round):
        from repro.asm import assemble
        from repro.core import EpicProcessor
        from repro.errors import ReproError
        from repro.harness.runner import check_outputs
        from repro.perf.bench import stats_fingerprint

        spec, config, compilation = self.pairs[position]
        machine = f"EPIC-{config.n_alus}ALU"
        # Assembled outside the timed region: engine code generation
        # and JIT warm-up are cached on the Program object, so a fresh
        # one puts them inside every timed run.
        program = assemble(compilation.assembly, config)
        result.attempted += 1
        try:
            begun = time.perf_counter()
            cpu = EpicProcessor(config, program, mem_words=spec.mem_words)
            run = cpu.run(engine=engine)
            elapsed = time.perf_counter() - begun

            def read_global(name: str, count: int):
                base = compilation.symbols[name]
                return [cpu.memory.read(base + i) for i in range(count)]

            check_outputs(spec.name, machine, spec, read_global,
                          cpu.gpr.read(2))
        except ReproError as error:
            result.fail(f"{spec.name} on {machine} ({engine}): {error}")
            return None
        fingerprint = digest_of(stats_fingerprint(cpu.stats))
        first = self.prints.setdefault(position, fingerprint)
        if fingerprint != first:
            result.fail(f"{spec.name} on {machine} ({engine}): stats "
                        f"fingerprint {fingerprint[:12]} != {first[:12]}")
            return None
        return run.cycles, elapsed

    def run_round(self, index: int) -> Round:
        result = Round()
        for position in range(len(self.pairs)):
            measured = self._simulate(position, "auto", result)
            if measured is not None:
                cycles, elapsed = measured
                result.request(f"pair{position}", elapsed, cycles / 1e6)
                result.seconds += elapsed
        return result

    def cross_check(self) -> Round:
        result = Round()
        for position in range(len(self.pairs)):
            self._simulate(position, "reference", result)
        return result

    def fingerprint(self) -> str:
        return digest_of([self.prints.get(position)
                          for position in range(len(self.pairs))])


# -- campaign ---------------------------------------------------------

class Campaign(Workload):
    """Vector-engine fault campaigns on quick SHA and quick DCT."""

    name = "campaign"
    rate_name, item_unit = "faults_per_s", "faults/s"
    latency_name = "campaign_p50_s"
    #: Faults per campaign: one full 64-lane vector batch.
    faults = 64
    #: Fault seeds of every round.  They are fixed rather than drawn
    #: from the run seed: per-fault cost is heavy-tailed (a fault that
    #: hangs costs a scalar watchdog run of 4x the golden length), so
    #: over a seed-drawn fault list faults/s measures the list, not the
    #: code (README.md has the figures).  The run seed draws the images.
    fault_seeds = (1, 2, 3)
    #: Every run repeats each campaign at least twice, so every run
    #: checks outcome-table stability; the peak RSS also settles after
    #: the first round.
    min_rounds = 3

    def setup(self) -> None:
        from repro.config.presets import epic_with_alus
        from repro.reliability import LockstepChecker
        from repro.workloads import dct_workload, sha_workload

        self.config = epic_with_alus(2)
        self.checkers = []
        for spec in (sha_workload(16, 16, derive(self.seed, "campaign/sha")),
                     dct_workload(16, 16, derive(self.seed, "campaign/dct"))):
            checker = LockstepChecker(spec, self.config)
            checker.prepare_checkpoints()
            self.checkers.append((spec, checker))
        self.tables: Dict[tuple, str] = {}

    def run_round(self, index: int) -> Round:
        result = Round()
        layer = {"vector.faults": 0, "vector.scalar_faults": 0,
                 "vector.occupancy": [], "vector.wasted_retired_cycles": [],
                 "vector.rewalk_groups": 0,
                 "campaign.prefix_cycles_skipped": 0, "vector.numpy": 0}
        started = time.perf_counter()
        for fault_seed in self.fault_seeds:
            for spec, checker in self.checkers:
                # One request: one campaign.
                begun = time.perf_counter()
                classified = self._campaign(spec, checker, fault_seed,
                                            result, layer)
                result.request(f"{spec.name}/{fault_seed}",
                               time.perf_counter() - begun, classified)
        result.seconds = time.perf_counter() - started
        total = layer.pop("vector.faults")
        scalar = layer.pop("vector.scalar_faults")
        layer["vector.scalar_frac"] = scalar / total if total else 0.0
        for key in ("vector.occupancy", "vector.wasted_retired_cycles"):
            values = layer[key]
            layer[key] = sum(values) / len(values) if values else 0.0
        result.layer = layer
        return result

    def _campaign(self, spec, checker, fault_seed, result, layer) -> int:
        """Runs one campaign; returns the faults classified and checked."""
        from repro.errors import ReproError
        from repro.harness.faultcampaign import run_campaign

        result.attempted += self.faults
        try:
            report = run_campaign(spec, self.config, self.faults,
                                  fault_seed, checker=checker,
                                  engine="vector")
        except ReproError as error:
            result.fail(f"{spec.name} seed {fault_seed}: {error}",
                        self.faults)
            return 0
        unclassified = self.faults - report.classified
        if unclassified or len(report.results) != self.faults:
            result.fail(f"{spec.name} seed {fault_seed}: "
                        f"{unclassified} fault(s) unclassified",
                        max(1, unclassified))
        classified = report.classified
        table = digest_of(report.outcome_table())
        first = self.tables.setdefault((spec.name, fault_seed), table)
        if table != first:
            result.fail(f"{spec.name} seed {fault_seed}: outcome "
                        f"table {table[:12]} != {first[:12]}",
                        self.faults)
            classified = 0
        timing = report.timing or {}
        layer["vector.faults"] += timing.get("vector_faults", 0)
        layer["vector.scalar_faults"] += timing.get("scalar_faults", 0)
        layer["vector.occupancy"].append(
            timing.get("vector_occupancy", 0.0))
        layer["vector.wasted_retired_cycles"].append(
            timing.get("wasted_retired_cycles", 0.0))
        layer["vector.rewalk_groups"] += timing.get("rewalk_groups", 0)
        layer["campaign.prefix_cycles_skipped"] += \
            timing.get("prefix_cycles_skipped", 0)
        layer["vector.numpy"] = max(layer["vector.numpy"],
                                    int(bool(timing.get("vector_numpy"))))
        return classified

    def fingerprint(self) -> str:
        return digest_of(sorted(f"{name}/{fault_seed}/{table}"
                                for (name, fault_seed), table
                                in self.tables.items()))


# -- serve ------------------------------------------------------------

class Serve(Workload):
    """One client, one batch outstanding, against an in-process daemon."""

    name = "serve"
    rate_name, item_unit = "jobs_per_s", "jobs/s"
    latency_name = "batch_p50_s"
    replay = False
    #: A round is one batch; six give the batch median six samples
    #: whatever --seconds says.
    min_rounds = 6
    #: Each batch: a fresh quick SHA and a fresh quick Dijkstra job on
    #: each of 1-4 ALUs (execute, spool write, cache put), and as many
    #: repeats of earlier digests (cache reads).  A batch lasts ~1 s, so
    #: the 50 ms polling step is a small part of its latency.
    alus = (1, 2, 3, 4)
    repeats_per_batch = 8
    #: DaemonClient.wait's polling interval.
    poll_interval = 0.05

    def setup(self) -> None:
        from repro.serve.daemon import DaemonClient, ServeDaemon
        from repro.workloads.common import XorShift32

        self.spool = tempfile.mkdtemp(prefix="spool-", dir=self.scratch)
        self.daemon = ServeDaemon(self.spool)
        self.daemon.start()
        self.client = DaemonClient("127.0.0.1", self.daemon.port,
                                   client="perfbench")
        self.rng = XorShift32(derive(self.seed, "serve/stream"))
        #: digest -> (spec, canonical payload text) of every job done.
        self.done: Dict[str, tuple] = {}
        self.order: List[str] = []
        # Warm the pool: both workers spawn and import the job code,
        # then one batch shaped like a timed one, whose first run after
        # the spawn is slower than the rest.
        warm = Round()
        try:
            self._batch(self._fresh_jobs(), warm)
            self._batch(self._next_jobs(), warm)
            if warm.failed:
                raise RuntimeError("serve warm-up failed: "
                                   + "; ".join(warm.errors))
        except BaseException:
            self.teardown()
            raise

    def teardown(self) -> None:
        self.daemon.stop()
        shutil.rmtree(self.spool, ignore_errors=True)

    def _fresh_jobs(self):
        from repro.config.presets import epic_with_alus
        from repro.serve import sweep_job
        from repro.workloads import dijkstra_workload, sha_workload

        jobs = []
        for build in (lambda s: sha_workload(16, 16, s),
                      lambda s: dijkstra_workload(12, 35, s)):
            for n_alus in self.alus:
                data_seed = (self.rng.next() & 0x7FFFFFFF) or 1
                jobs.append(sweep_job(build(data_seed),
                                      epic_with_alus(n_alus),
                                      validate=True))
        return jobs

    def _span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def _batch(self, jobs, result: Round) -> None:
        begun = time.perf_counter()
        with self._span("serve.submit"):
            accepted = self.client.submit(jobs)
        polls = 0
        while True:
            with self._span("serve.poll"):
                state = self.client.poll(accepted["batch"])
            polls += 1
            if state["state"] == "done":
                break
            time.sleep(self.poll_interval)
        latency = time.perf_counter() - begun
        result.layer["serve.polls"] = \
            result.layer.get("serve.polls", 0) + polls
        by_digest = {spec.digest(): spec for spec in jobs}
        ok = 0
        results = state["results"]
        result.attempted += len(jobs)
        if len(results) != len(jobs):
            result.fail(f"batch {accepted['batch']}: {len(results)} of "
                        f"{len(jobs)} results", len(jobs) - len(results))
        for entry in results:
            result.layer["serve.job_service_s"] = \
                result.layer.get("serve.job_service_s", 0.0) \
                + entry["seconds"]
            if entry["status"] != "ok":
                result.fail(f"job {entry['job_id']}: {entry['status']} "
                            f"{entry.get('error')}")
                continue
            text = json.dumps(entry["payload"], sort_keys=True)
            digest = entry["digest"]
            if digest in self.done:
                if self.done[digest][1] != text:
                    result.fail(f"job {entry['job_id']}: repeated digest "
                                "returned a different payload")
                    continue
            else:
                self.done[digest] = (by_digest[digest], text)
                self.order.append(digest)
            ok += 1
        result.request("batch", latency, ok)

    def _pool_counters(self):
        status = self.client.status()
        pool = status["executor"]["warm_pool"] or {}
        return status["cache"], pool

    def _next_jobs(self):
        jobs = self._fresh_jobs()
        picked = set()
        while len(picked) < min(self.repeats_per_batch, len(self.order)):
            picked.add(self.order[self.rng.below(len(self.order))])
        # Fresh SHA jobs (the longest) go first, so the two workers
        # finish together whatever the seed drew.
        jobs.extend(self.done[digest][0] for digest in sorted(picked))
        return jobs

    def run_round(self, index: int) -> Round:
        result = Round()
        cache_before, pool_before = self._pool_counters()
        started = time.perf_counter()
        self._batch(self._next_jobs(), result)
        result.seconds = time.perf_counter() - started
        cache_after, pool_after = self._pool_counters()

        def delta(before, after, key):
            return after.get(key, 0) - before.get(key, 0)

        layer = result.layer
        workers = max(1, self.daemon.executor.jobs)
        layer["serve.polls_per_batch"] = layer.pop("serve.polls")
        layer["serve.overhead_frac"] = 1.0 - layer.get(
            "serve.job_service_s", 0.0) / (result.seconds * workers)
        hits = delta(cache_before, cache_after, "hits")
        lookups = hits + delta(cache_before, cache_after, "misses")
        layer["serve.cache_hit_frac"] = hits / lookups if lookups else 0.0
        layer["serve.cache_puts"] = delta(cache_before, cache_after, "puts")
        layer["serve.spawns"] = delta(pool_before, pool_after, "spawns")
        dispatched = delta(pool_before, pool_after, "dispatched")
        layer["serve.worker_reuse_frac"] = (
            delta(pool_before, pool_after, "reused_jobs") / dispatched
            if dispatched else 0.0)
        routed = (delta(pool_before, pool_after, "affinity_hits")
                  + delta(pool_before, pool_after, "affinity_misses"))
        layer["serve.affinity_hit_frac"] = (
            delta(pool_before, pool_after, "affinity_hits") / routed
            if routed else 0.0)
        layer["serve.workers_lost"] = delta(pool_before, pool_after,
                                            "workers_lost")
        self._rss_kb = max((worker.get("rss_kb") or 0) for worker in
                           pool_after.get("workers", [])) \
            if pool_after.get("workers") else 0
        return result

    def worker_rss_mb(self) -> float:
        return getattr(self, "_rss_kb", 0) / 1024.0


WORKLOADS = {cls.name: cls for cls in (Explore, Simulate, Campaign, Serve)}
