"""Tests for query-set persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CombinationOrder, DetectorConfig
from repro.core.query import QuerySet
from repro.minhash.family import MinHashFamily
from repro.persistence import (
    PersistenceError,
    load_query_set,
    load_recorded_config,
    save_query_set,
)


@pytest.fixture()
def query_set():
    family = MinHashFamily(num_hashes=64, seed=12)
    return QuerySet.from_cell_ids(
        {
            3: np.arange(100, 140),
            7: np.arange(500, 520),
            11: np.array([9, 3, 3, 77]),
        },
        {3: 40, 7: 20, 11: 4},
        family,
        labels={3: "ad-campaign", 7: "trailer", 11: "jingle"},
    )


class TestRoundtrip:
    def test_queries_identical(self, query_set, tmp_path):
        path = tmp_path / "queries.npz"
        save_query_set(query_set, path)
        restored = load_query_set(path)
        assert restored.query_ids == query_set.query_ids
        for qid in query_set.query_ids:
            original = query_set.get(qid)
            loaded = restored.get(qid)
            assert np.array_equal(loaded.cell_ids, original.cell_ids)
            assert loaded.num_frames == original.num_frames
            assert loaded.label == original.label
            assert np.array_equal(
                loaded.sketch.values, original.sketch.values
            )

    def test_family_identical(self, query_set, tmp_path):
        path = tmp_path / "queries.npz"
        save_query_set(query_set, path)
        restored = load_query_set(path)
        assert restored.family.fingerprint == query_set.family.fingerprint

    def test_restored_set_detects(self, query_set, tmp_path, rng):
        """A reloaded subscription finds the same copies."""
        from repro.config import DetectorConfig
        from repro.core.detector import StreamingDetector

        path = tmp_path / "queries.npz"
        save_query_set(query_set, path)
        restored = load_query_set(path)

        stream = np.concatenate(
            [rng.integers(100_000, 900_000, size=40),
             np.arange(100, 140),
             rng.integers(100_000, 900_000, size=40)]
        )
        config = DetectorConfig(num_hashes=64, threshold=0.7,
                                window_seconds=10.0)
        original_matches = StreamingDetector(
            config, query_set, 1.0
        ).process_cell_ids(stream)
        restored_matches = StreamingDetector(
            config, restored, 1.0
        ).process_cell_ids(stream)
        view = lambda ms: {(m.qid, m.start_frame, m.end_frame) for m in ms}
        assert view(restored_matches) == view(original_matches)
        assert view(original_matches), "sanity: the copy must be found"


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="no query-set file"):
            load_query_set(tmp_path / "absent.npz")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(PersistenceError):
            load_query_set(path)

    @staticmethod
    def _rewrite(path, drop=(), **members):
        with np.load(path) as archive:
            payload = {**archive, **members}
        for name in drop:
            del payload[name]
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)

    def test_version_mismatch(self, query_set, tmp_path):
        """One version: older and newer files are both refused, naming
        the version found and the version supported."""
        path = tmp_path / "queries.npz"
        save_query_set(query_set, path)
        for version in (1, 99):
            self._rewrite(path, format_version=np.asarray([version]))
            for load in (load_query_set, load_recorded_config):
                with pytest.raises(PersistenceError) as excinfo:
                    load(path)
                assert f"has format version {version};" in str(excinfo.value)
                assert "reads and writes version 3 only" in str(
                    excinfo.value
                )

    def test_missing_field(self, query_set, tmp_path):
        path = tmp_path / "queries.npz"
        save_query_set(query_set, path)
        self._rewrite(path, drop=["cells_3"])
        with pytest.raises(PersistenceError, match="missing field"):
            load_query_set(path)

    def test_duplicate_query_id_is_refused(self, query_set, tmp_path):
        path = tmp_path / "queries.npz"
        save_query_set(query_set, path)
        self._rewrite(path, qids=np.asarray([3, 3, 11]))
        with pytest.raises(PersistenceError, match="query id twice"):
            load_query_set(path)

    def test_pickled_member_is_refused(self, query_set, tmp_path):
        path = tmp_path / "queries.npz"
        save_query_set(query_set, path)
        self._rewrite(
            path, labels=np.asarray(["a", "b", "c"], dtype=object)
        )
        with pytest.raises(PersistenceError, match="Object arrays"):
            load_query_set(path)


class TestRecordedConfig:
    """The detector config rides with the query set."""

    def _config(self, **overrides):
        base = dict(num_hashes=64, threshold=0.7, window_seconds=10.0)
        base.update(overrides)
        return DetectorConfig(**base)

    def test_roundtrip_and_match(self, query_set, tmp_path):
        path = tmp_path / "queries.npz"
        config = self._config(order=CombinationOrder.GEOMETRIC)
        save_query_set(query_set, path, config=config)
        assert load_recorded_config(path) == config
        load_query_set(path, expected_config=config)  # must not raise
        # Version 3 files written while the engine switch existed carry
        # one more member; they load unchanged.
        TestFailureModes._rewrite(path, config_vectorized=np.asarray([1]))
        assert load_recorded_config(path) == config
        load_query_set(path, expected_config=config)

    def test_mismatch_fails_loudly(self, query_set, tmp_path):
        """Every differing field is named with both values."""
        path = tmp_path / "queries.npz"
        save_query_set(query_set, path, config=self._config())
        other = self._config(threshold=0.9, prune=False)
        with pytest.raises(PersistenceError) as excinfo:
            load_query_set(path, expected_config=other)
        message = str(excinfo.value)
        assert "threshold: recorded=0.7 expected=0.9" in message
        assert "prune: recorded=True expected=False" in message

    def test_no_recorded_config_skips_check(self, query_set, tmp_path):
        """Files saved without a config have nothing to check against."""
        path = tmp_path / "queries.npz"
        save_query_set(query_set, path)
        assert load_recorded_config(path) is None
        load_query_set(path, expected_config=self._config())  # no raise
