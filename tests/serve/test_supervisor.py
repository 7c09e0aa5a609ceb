"""SupervisedPool: heartbeats, watchdog, retries, poison quarantine,
degraded serial fallback.

Probe jobs drive every failure mode without touching the simulator;
chaos directives drive the infrastructure faults (worker killed or
hung mid-job) that no probe behaviour can express.
"""

import json
import os
import select
import subprocess
import sys
import time

import pytest

from repro.errors import ServeError, SpawnError
from repro.serve import JobSpec, SupervisedPool
from repro.serve.chaos import ChaosMonkey


def probe(behavior="ok", seed=0, seconds=0.0):
    return JobSpec(kind="probe", behavior=behavior, seed=seed,
                   seconds=seconds)


@pytest.fixture
def pool():
    """Build SupervisedPools with test-friendly (fast) timing defaults;
    every pool built is closed when the test ends."""
    pools = []

    def make(**overrides):
        settings = dict(jobs=2, heartbeat=0.05, watchdog=0.5,
                        backoff_base=0.01, backoff_cap=0.05)
        settings.update(overrides)
        pools.append(SupervisedPool(**settings))
        return pools[-1]

    yield make
    for made in pools:
        made.close()


class TestOrderingAndBasics:
    def test_results_in_input_order_despite_scheduling(self, pool):
        specs = [probe("sleep", seed=n, seconds=0.3 - 0.1 * n)
                 for n in range(3)]
        outcomes = pool(jobs=3).run(specs)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.payload["value"] for o in outcomes] == [0, 1, 2]
        assert all(o.ok for o in outcomes)

    def test_failure_is_structured_not_raised(self, pool):
        outcomes = pool().run([probe("fail"), probe(seed=3)])
        assert [o.status for o in outcomes] == ["error", "ok"]
        assert "asked to fail" in outcomes[0].error

    def test_on_result_sees_every_job(self, pool):
        seen = []
        pool().run([probe(seed=n) for n in range(4)],
                   on_result=lambda o: seen.append(o.index))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_bad_construction_rejected(self):
        with pytest.raises(ServeError):
            SupervisedPool(jobs=0)
        with pytest.raises(ServeError):
            SupervisedPool(poison_after=0)
        with pytest.raises(ServeError):
            SupervisedPool(backoff_base=0.2, backoff_cap=0.1)
        with pytest.raises(ServeError, match="watchdog"):
            SupervisedPool(heartbeat=1.0, watchdog=0.5)


class TestCrashRetries:
    def test_crash_retry_exhaustion_surfaces_crashed(self, pool):
        # poison_after above the attempt budget: the job must exhaust
        # its retries and report crashed, not poisoned.
        outcome = pool(retries=1, poison_after=5).run(
            [probe("crash")])[0]
        assert outcome.status == "crashed"
        assert outcome.attempts == 2
        assert "exit code 13" in outcome.error

    def test_crash_does_not_poison_neighbours(self, pool):
        specs = [probe(seed=1), probe("crash"), probe(seed=2)]
        outcomes = pool(retries=0, poison_after=5).run(specs)
        assert [o.status for o in outcomes] == ["ok", "crashed", "ok"]

    def test_backoff_delay_is_deterministic_and_bounded(self, pool):
        supervisor = pool(backoff_base=0.05, backoff_cap=0.4)
        digest = probe("crash").digest()
        first = supervisor.backoff_delay(digest, 1)
        assert first == supervisor.backoff_delay(digest, 1)
        for failures in range(1, 8):
            delay = supervisor.backoff_delay(digest, failures)
            window = min(0.4, 0.05 * 2 ** (failures - 1))
            assert 0.5 * window <= delay <= window

    def test_zero_base_means_no_backoff(self, pool):
        assert pool(backoff_base=0.0).backoff_delay("ab" * 32, 3) == 0.0


class TestPoisonQuarantine:
    def test_crash_loop_is_quarantined_as_poisoned(self, pool):
        supervisor = pool(retries=5, poison_after=2)
        outcome = supervisor.run([probe("crash")])[0]
        assert outcome.status == "poisoned"
        assert "crash-looped" in outcome.error
        assert probe("crash").digest() in supervisor.quarantined()

    def test_requeued_poisoned_digest_refused_without_spawning(self, pool):
        supervisor = pool(retries=5, poison_after=2)
        supervisor.run([probe("crash")])
        again = supervisor.run([probe("crash"), probe(seed=4)])
        assert again[0].status == "poisoned"
        assert again[0].attempts == 0  # refused, never re-spawned
        assert again[1].ok  # healthy neighbours still run


class TestWatchdog:
    def test_heartbeats_keep_slow_jobs_alive(self, pool):
        # The job outlives the watchdog window many times over; the
        # worker's heartbeat thread must keep it off the reap list.
        outcome = pool(jobs=1, heartbeat=0.05, watchdog=0.3).run(
            [probe("sleep", seed=9, seconds=1.0)])[0]
        assert outcome.ok
        assert outcome.attempts == 1

    def test_chaos_hang_reaped_and_retried_to_success(self, pool):
        chaos = ChaosMonkey(seed=3, hang_rate=1.0, max_faults_per_job=1)
        outcome = pool(jobs=1, watchdog=0.3, retries=2,
                       chaos=chaos).run([probe(seed=5)])[0]
        assert outcome.ok
        assert outcome.payload == {"value": 5}
        assert outcome.attempts == 2
        counts = chaos.log.counts()
        assert counts["hang-worker"] == 1
        assert counts["watchdog-reap"] == 1

    def test_watchdog_exhaustion_is_a_structured_timeout(self, pool):
        chaos = ChaosMonkey(seed=3, hang_rate=1.0,
                            max_faults_per_job=99)
        outcome = pool(jobs=1, watchdog=0.3, retries=1,
                       chaos=chaos).run([probe(seed=5)])[0]
        assert outcome.status == "timeout"
        assert "watchdog" in outcome.error
        assert outcome.attempts == 2

    def test_per_job_timeout_is_not_retried(self, pool):
        # A hang probe heartbeats merrily, so only the per-job budget
        # can reap it — and a deterministic job fault earns no retry.
        outcome = pool(jobs=1, timeout=0.4, retries=3).run(
            [probe("hang")])[0]
        assert outcome.status == "timeout"
        assert outcome.attempts == 1
        assert "0.4s" in outcome.error

    def test_chaos_kill_reaped_and_retried_to_success(self, pool):
        chaos = ChaosMonkey(seed=3, kill_rate=1.0, max_faults_per_job=1)
        outcomes = pool(retries=2, chaos=chaos).run(
            [probe(seed=n) for n in range(3)])
        assert all(o.ok for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert chaos.log.counts()["kill-worker"] == 3


class TestDegradedFallback:
    def test_spawn_failure_degrades_to_serial(self, pool, monkeypatch):
        supervisor = pool()

        def refuse():
            raise OSError("Resource temporarily unavailable")

        monkeypatch.setattr(supervisor, "_spawn_warm", refuse)
        outcomes = supervisor.run([probe(seed=n) for n in range(3)])
        assert supervisor.degraded
        assert [o.payload["value"] for o in outcomes] == [0, 1, 2]
        assert all(o.meta.get("degraded") for o in outcomes)

    def test_degraded_mode_reports_unrunnable_probes_as_crashed(
            self, pool, monkeypatch):
        supervisor = pool()
        monkeypatch.setattr(
            supervisor, "_spawn_warm",
            lambda: (_ for _ in ()).throw(
                OSError("no more processes")))
        outcomes = supervisor.run([probe("crash"), probe(seed=1)])
        assert outcomes[0].status == "crashed"
        assert "degraded" in outcomes[0].error
        assert outcomes[1].ok

    def test_fallback_disabled_raises_spawn_error(self, pool, monkeypatch):
        supervisor = pool(fallback_serial=False)
        monkeypatch.setattr(
            supervisor, "_spawn_warm",
            lambda: (_ for _ in ()).throw(
                OSError("no more processes")))
        with pytest.raises(SpawnError):
            supervisor.run([probe()])


#: A pool owner: runs one batch on two warm workers, prints their PIDs,
#: then idles until killed.
OWNER_SCRIPT = """
import json, time
from repro.serve import JobSpec, SupervisedPool

pool = SupervisedPool(jobs=2, heartbeat={heartbeat})
pool.run([JobSpec(kind="probe", behavior="sleep", seed=n, seconds=0.2)
          for n in range(2)])
print(json.dumps([w.process.pid for w in pool._warm_workers.values()]),
      flush=True)
time.sleep(3600)
"""


def running(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reap."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads process states from /proc")
class TestOwnerDeath:
    @pytest.mark.parametrize("heartbeat", [0.05, 0])
    def test_workers_exit_when_the_owner_is_killed(self, heartbeat):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        owner = subprocess.Popen(
            [sys.executable, "-c", OWNER_SCRIPT.format(heartbeat=heartbeat)],
            env=env, stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([owner.stdout], [], [], 60.0)
            assert ready, "the pool owner never reported its workers"
            pids = json.loads(owner.stdout.readline())
        finally:
            owner.kill()
            owner.wait(timeout=10)
            owner.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(running, pids)):
            time.sleep(0.05)
        assert [pid for pid in pids if running(pid)] == []
