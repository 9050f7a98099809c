"""Unit tests for the serving subsystem's building blocks.

Covers the shard planner (balance, determinism, clamping, errors), the
match collector's canonical ordering, the bounded-queue backpressure
policies, cross-worker metrics merging, and the checkpoint manager's
atomicity and failure modes. End-to-end shard equivalence lives in
``test_serve_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DetectorConfig, Representation
from repro.core.query import QuerySet
from repro.core.results import Match
from repro.errors import ServeError
from repro.minhash.family import MinHashFamily
from repro.obs.merge import MergeError, merge_snapshots
from repro.persistence import PersistenceError
from repro.serve import (
    BackpressurePolicy,
    BoundedChannel,
    CheckpointManager,
    DetectionService,
    MatchCollector,
    ServiceCheckpoint,
    ShardPlanner,
    put_with_policy,
)


@pytest.fixture()
def family():
    return MinHashFamily(num_hashes=32, seed=5)


def _query_set(family, sizes):
    """Queries 0..n-1 whose frame counts are ``sizes``."""
    rng = np.random.default_rng(9)
    cells = {
        qid: rng.integers(0, 500, size=max(4, length))
        for qid, length in enumerate(sizes)
    }
    return QuerySet.from_cell_ids(
        cells, dict(enumerate(sizes)), family
    )


class TestShardPlanner:
    def test_every_query_in_exactly_one_shard(self, family):
        queries = _query_set(family, [10, 20, 30, 40, 50])
        plan = ShardPlanner(2).plan(queries, window_frames=5, tempo_scale=1.0)
        seen = [qid for shard in plan.shards for qid in shard]
        assert sorted(seen) == queries.query_ids

    def test_load_strategy_balances_candidate_caps(self, family):
        # One huge query and four tiny ones: LPT puts the giant alone.
        queries = _query_set(family, [400, 10, 10, 10, 10])
        plan = ShardPlanner(2, strategy="load").plan(
            queries, window_frames=5, tempo_scale=1.0
        )
        assert plan.shard_of(0) != plan.shard_of(1)
        giant = plan.shard_of(0)
        assert plan.shards[giant] == (0,)

    def test_count_strategy_balances_sizes(self, family):
        queries = _query_set(family, [400, 10, 10, 10])
        plan = ShardPlanner(2, strategy="count").plan(
            queries, window_frames=5, tempo_scale=1.0
        )
        assert sorted(len(shard) for shard in plan.shards) == [2, 2]

    def test_deterministic(self, family):
        queries = _query_set(family, [17, 23, 9, 31, 12, 25])
        plans = [
            ShardPlanner(3).plan(queries, window_frames=5, tempo_scale=1.0)
            for _ in range(3)
        ]
        assert plans[0] == plans[1] == plans[2]

    def test_more_shards_than_queries_clamps(self, family):
        queries = _query_set(family, [10, 20])
        plan = ShardPlanner(8).plan(queries, window_frames=5, tempo_scale=1.0)
        assert plan.num_shards == 2
        assert all(len(shard) == 1 for shard in plan.shards)

    def test_imbalance_metric(self, family):
        queries = _query_set(family, [10, 10, 10, 10])
        plan = ShardPlanner(2, strategy="count").plan(
            queries, window_frames=5, tempo_scale=1.0
        )
        assert plan.imbalance() == pytest.approx(1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ServeError, match="num_shards"):
            ShardPlanner(0)
        with pytest.raises(ServeError, match="strategy"):
            ShardPlanner(2, strategy="alphabetical")

    def test_shard_of_unknown_query(self, family):
        queries = _query_set(family, [10])
        plan = ShardPlanner(1).plan(queries, window_frames=5, tempo_scale=1.0)
        with pytest.raises(ServeError, match="not in the shard plan"):
            plan.shard_of(99)


def _match(qid, window, start):
    return Match(qid=qid, window_index=window, start_frame=start,
                 end_frame=start + 4, similarity=0.5)


class TestMatchCollector:
    def test_sequential_order_ascending_start(self):
        collector = MatchCollector()
        merged = collector.merge([
            [_match(1, 0, 10), _match(1, 1, 0)],
            [_match(0, 0, 5), _match(0, 1, 0)],
        ])
        assert [(m.window_index, m.start_frame, m.qid) for m in merged] == [
            (0, 5, 0), (0, 10, 1), (1, 0, 0), (1, 0, 1),
        ]

    def test_accumulates_and_restores(self):
        collector = MatchCollector()
        collector.merge([[_match(0, 0, 0)]])
        collector.merge([[_match(0, 1, 0)]])
        assert len(collector) == 2
        other = MatchCollector()
        other.restore(collector.matches)
        assert other.matches == collector.matches


class TestBoundedChannel:
    def test_block_policy_waits_and_reports_time(self):
        import threading

        channel = BoundedChannel(1)
        channel.put("a")

        def drain():
            channel.get()

        timer = threading.Timer(0.05, drain)
        timer.start()
        outcome = channel.put("b", BackpressurePolicy.BLOCK)
        timer.join()
        assert outcome.delivered
        assert outcome.blocked_seconds > 0

    def test_drop_oldest_steals_head(self):
        channel = BoundedChannel(2)
        channel.put("a")
        channel.put("b")
        outcome = channel.put("c", BackpressurePolicy.DROP_OLDEST)
        assert outcome.delivered and outcome.dropped == ["a"]
        assert channel.get() == "b"
        assert channel.get() == "c"

    def test_shed_rejects_new_item(self):
        channel = BoundedChannel(1)
        channel.put("a")
        outcome = channel.put("b", BackpressurePolicy.SHED)
        assert not outcome.delivered and not outcome.dropped
        assert channel.get() == "a"

    def test_rejects_zero_capacity(self):
        with pytest.raises(ServeError, match="capacity"):
            BoundedChannel(0)


class TestPutWithPolicy:
    """The lossy policies against *real* multiprocessing queues — the
    process backend's actual transport — plus the steal/retry race.

    ``multiprocessing.Queue`` has no atomic steal, so ``DROP_OLDEST``
    is emulated by the producer consuming its own queue and retrying
    the put; a worker can drain the queue between those two steps
    (``Empty`` then ``Full``), and the loop must survive that.
    """

    def _mp_queue(self, capacity):
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        return context.Queue(capacity)

    def _settle(self, target, expected):
        """Wait for the feeder thread: puts reserve capacity at call
        time, but items only become stealable once flushed."""
        import time

        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                if target.qsize() == expected:
                    return
            except NotImplementedError:  # pragma: no cover - macOS
                time.sleep(0.2)
                return
            time.sleep(0.01)
        raise AssertionError("queue feeder never flushed")

    def test_shed_rejects_on_full_mp_queue(self):
        target = self._mp_queue(1)
        assert put_with_policy(
            target, "a", BackpressurePolicy.SHED
        ).delivered
        outcome = put_with_policy(target, "b", BackpressurePolicy.SHED)
        assert not outcome.delivered and not outcome.dropped
        self._settle(target, 1)
        assert target.get(timeout=5) == "a"

    def test_drop_oldest_steals_from_mp_queue(self):
        target = self._mp_queue(2)
        put_with_policy(target, "a", BackpressurePolicy.DROP_OLDEST)
        put_with_policy(target, "b", BackpressurePolicy.DROP_OLDEST)
        self._settle(target, 2)
        outcome = put_with_policy(
            target, "c", BackpressurePolicy.DROP_OLDEST
        )
        assert outcome.delivered and outcome.dropped == ["a"]
        self._settle(target, 2)
        assert [target.get(timeout=5) for _ in range(2)] == ["b", "c"]

    def test_block_waits_for_mp_consumer(self):
        import threading

        target = self._mp_queue(1)
        put_with_policy(target, "a", BackpressurePolicy.BLOCK)
        self._settle(target, 1)
        drained = []

        def drain():
            drained.append(target.get(timeout=5))

        timer = threading.Timer(0.05, drain)
        timer.start()
        outcome = put_with_policy(
            target, "b", BackpressurePolicy.BLOCK, poll_seconds=0.01
        )
        timer.join()
        assert outcome.delivered
        assert outcome.blocked_seconds > 0
        assert drained == ["a"]
        assert target.get(timeout=5) == "b"

    def test_drop_oldest_survives_empty_then_full_race(self):
        """The worker drains the queue between the producer's steal and
        its retry: ``get_nowait`` raises Empty, the retried put still
        raises Full (capacity reserved by an in-flight message), and
        the loop keeps going instead of crashing or double-dropping."""
        import queue as queue_module

        class RacyQueue:
            def __init__(self, full_puts):
                self.full_puts = full_puts
                self.items = []
                self.steal_attempts = 0

            def put_nowait(self, item):
                if self.full_puts > 0:
                    self.full_puts -= 1
                    raise queue_module.Full
                self.items.append(item)

            def get_nowait(self):
                self.steal_attempts += 1
                raise queue_module.Empty

        target = RacyQueue(full_puts=3)
        outcome = put_with_policy(
            target, "x", BackpressurePolicy.DROP_OLDEST
        )
        assert outcome.delivered
        assert outcome.dropped == []  # the worker won every steal race
        assert target.steal_attempts == 3
        assert target.items == ["x"]


def test_service_rejects_queue_capacity_below_one(family):
    """``multiprocessing.Queue(0)`` is unbounded: a zero capacity would
    make ``block`` never block and the lossy policies never drop, so the
    service refuses it before any worker exists. A batch of fewer than
    one chunk is refused the same way, not silently run as one."""
    with pytest.raises(ServeError, match="queue_capacity must be >= 1, got 0"):
        DetectionService(
            DetectorConfig(num_hashes=32), _query_set(family, [10, 20]),
            2.0, backend="process", queue_capacity=0,
        )
    with pytest.raises(ServeError, match="batch_chunks must be >= 1, got 0"):
        DetectionService(
            DetectorConfig(num_hashes=32), _query_set(family, [10, 20]),
            2.0, backend="process", batch_chunks=0,
        )


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_service_refuses_sketch_before_any_worker_starts(
    family, backend, monkeypatch
):
    """Workers run the bit-only production engines, so a sketch
    configuration is a typed refusal raised before an executor exists."""

    def no_executor(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr("repro.serve.service.SerialExecutor", no_executor)
    monkeypatch.setattr("repro.serve.service.ProcessExecutor", no_executor)
    config = DetectorConfig(num_hashes=32, representation=Representation.SKETCH)
    with pytest.raises(ServeError, match="bit representation only"):
        DetectionService(
            config, _query_set(family, [10, 20]), 2.0, backend=backend,
        )


class TestMergeSnapshots:
    def _snap(self, counters, gauges=None, timers=None):
        return {
            "schema": "repro.obs/1",
            "counters": counters,
            "gauges": gauges or {},
            "distributions": {},
            "timers": timers or {},
        }

    def test_additive_counters_sum(self):
        merged = merge_snapshots([
            self._snap({"engine.matches_reported": 3}),
            self._snap({"engine.matches_reported": 4}),
        ])
        assert merged["counters"]["engine.matches_reported"] == 7

    def test_replicated_counters_do_not_sum(self):
        merged = merge_snapshots([
            self._snap({"engine.windows_processed": 12}),
            self._snap({"engine.windows_processed": 12}),
        ])
        assert merged["counters"]["engine.windows_processed"] == 12
        assert merged["conflicts"] == []

    def test_replicated_disagreement_recorded(self):
        merged = merge_snapshots([
            self._snap({"engine.windows_processed": 12}),
            self._snap({"engine.windows_processed": 10}),
        ])
        assert merged["counters"]["engine.windows_processed"] == 12
        assert len(merged["conflicts"]) == 1

    def test_replicated_disagreement_strict_raises(self):
        with pytest.raises(MergeError, match="windows_processed"):
            merge_snapshots([
                self._snap({"engine.windows_processed": 12}),
                self._snap({"engine.windows_processed": 10}),
            ], strict=True)

    def test_timers_sum(self):
        merged = merge_snapshots([
            self._snap({}, timers={"phase.sketch": {"calls": 2,
                                                    "seconds": 0.5}}),
            self._snap({}, timers={"phase.sketch": {"calls": 3,
                                                    "seconds": 0.25}}),
        ])
        assert merged["timers"]["phase.sketch"] == {
            "calls": 5, "seconds": 0.75,
        }


class TestCheckpointManager:
    def _checkpoint(self, family, chunks=3):
        queries = _query_set(family, [10, 20])
        return ServiceCheckpoint(
            config=DetectorConfig(num_hashes=32),
            keyframes_per_second=2.0,
            chunks_ingested=chunks,
            cap_hint=4,
            strategy="load",
            worker_queries=[queries],
            worker_states=[{"eng_start_frame": np.arange(3, dtype=np.int64)}],
            matches=[_match(0, 1, 5)],
            frontend_pending=np.arange(2, dtype=np.int64),
            frontend_flushed=False,
            frontend_windows=7,
            frontend_frames=35,
        )

    def test_roundtrip(self, family, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(self._checkpoint(family))
        assert path == manager.latest()
        # ``repro.ckpt/5`` files written while the engine switch existed
        # carry one more member; they load unchanged.
        with np.load(path) as archive:
            payload = {**archive, "config_vectorized": np.asarray([1])}
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        loaded = manager.load(expected_config=DetectorConfig(num_hashes=32))
        assert loaded.chunks_ingested == 3
        assert loaded.cap_hint == 4
        assert loaded.matches == [_match(0, 1, 5)]
        assert loaded.worker_queries[0].query_ids == [0, 1]
        assert np.array_equal(
            loaded.worker_states[0]["eng_start_frame"], np.arange(3)
        )
        assert loaded.frontend_pending.tolist() == [0, 1]
        assert (
            loaded.frontend_flushed,
            loaded.frontend_windows,
            loaded.frontend_frames,
            loaded.frontend_skip,
        ) == (False, 7, 35, 0)

    def test_latest_picks_highest_position(self, family, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(self._checkpoint(family, chunks=2))
        manager.save(self._checkpoint(family, chunks=10))
        assert manager.load().chunks_ingested == 10

    def test_no_tmp_residue(self, family, tmp_path):
        """Atomic write: only the final file remains."""
        manager = CheckpointManager(tmp_path)
        manager.save(self._checkpoint(family))
        assert [p.suffix for p in tmp_path.iterdir()] == [".npz"]

    def test_config_mismatch_fails_loudly(self, family, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(self._checkpoint(family))
        with pytest.raises(PersistenceError, match="num_hashes"):
            manager.load(expected_config=DetectorConfig(num_hashes=64))
        with pytest.raises(PersistenceError, match="num_hashes"):
            DetectionService.restore(
                manager, expected_config=DetectorConfig(num_hashes=64)
            )

    def test_unknown_format_rejected(self, family, tmp_path):
        """One format: an older tag and a newer tag are both refused,
        loudly, naming the tag found and the tag supported."""
        manager = CheckpointManager(tmp_path)
        path = manager.save(self._checkpoint(family))
        with np.load(path) as archive:
            payload = dict(archive)
        for tag in ("repro.ckpt/4", "repro.ckpt/99"):
            payload["format"] = np.asarray([tag])
            with open(path, "wb") as handle:
                np.savez_compressed(handle, **payload)
            with pytest.raises(PersistenceError) as excinfo:
                manager.load(path)
            assert f"has format {tag!r}" in str(excinfo.value)
            assert "reads and writes 'repro.ckpt/5' only" in str(
                excinfo.value
            )

    def test_pickled_member_is_refused_not_unpickled(
        self, family, tmp_path, tripwire
    ):
        """A checkpoint is a file from outside the program: an object
        array in it is refused before anything is unpickled."""
        manager = CheckpointManager(tmp_path)
        path = manager.save(self._checkpoint(family))
        with np.load(path) as archive:
            payload = dict(archive)
        payload["format"] = np.asarray([tripwire()], dtype=object)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        with pytest.raises(PersistenceError, match="Object arrays"):
            manager.load(path)
        assert not tripwire.fired

    def test_archive_members_are_exactly_the_payload(self, family, tmp_path):
        """Regression: ``save`` used to pass ``allow_pickle=True`` as a
        ``savez_compressed`` keyword, which stores it as a spurious
        archive member. The member set must be exactly the payload."""
        from repro.persistence import (
            detector_config_payload,
            query_set_payload,
        )

        checkpoint = self._checkpoint(family)
        path = CheckpointManager(tmp_path).save(checkpoint)
        with np.load(path) as archive:
            members = set(archive.files)
        expected = {
            "format", "num_workers", "chunks_ingested", "cap_hint",
            "epoch", "keyframes_per_second", "strategy",
            "frontend_pending", "frontend_flushed", "frontend_windows",
            "frontend_frames", "frontend_skip", "archive_next",
            "archive_ring_indices", "archive_ring_starts",
            "archive_ring_frames", "archive_ring_sketches",
            "backfill_jobs",
        }
        expected |= set(detector_config_payload(checkpoint.config))
        expected |= {
            f"matches_{name}"
            for name in ("qid", "window", "start", "end", "similarity")
        }
        expected |= {
            f"retro_{name}"
            for name in ("qid", "window", "start", "end", "similarity")
        }
        expected |= set(
            query_set_payload(checkpoint.worker_queries[0], prefix="w0_qs_")
        )
        expected |= {f"w0_{key}" for key in checkpoint.worker_states[0]}
        assert members == expected

    def test_empty_directory(self, tmp_path):
        with pytest.raises(PersistenceError, match="no checkpoint"):
            CheckpointManager(tmp_path / "absent").load()
