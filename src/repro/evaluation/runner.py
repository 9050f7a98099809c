"""Experiment runner: workload preparation and timed detector runs.

The parameter sweeps of Section VI vary detector-side knobs (K, δ, w, m,
order, representation, index) far more often than fingerprint-side ones
(d, u). :class:`PreparedWorkload` therefore caches the expensive, sweep-
invariant artefact — the per-key-frame cell-id streams of the doctored
stream and of every query — once per (d, u), and :func:`run_detector`
times only what the paper times for a given configuration: windowing,
sketching and query processing over the stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.export import snapshot
from repro.obs.registry import MetricsRegistry

import numpy as np

from repro.config import DetectorConfig, FingerprintConfig
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.monitor import EngineStats
from repro.core.query import QuerySet
from repro.core.results import Match
from repro.evaluation.metrics import PrecisionRecall, score_matches
from repro.features.pipeline import FingerprintExtractor
from repro.minhash.family import MinHashFamily
from repro.workloads.doctor import DoctoredStream
from repro.workloads.groundtruth import GroundTruth
from repro.workloads.library import ClipLibrary

__all__ = ["ExperimentResult", "PreparedWorkload", "run_detector"]


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one timed detector run.

    Attributes
    ----------
    cpu_seconds:
        Wall-clock seconds of stream processing (windowing + sketching +
        query processing; feature extraction is reported separately in
        :attr:`prepare_seconds` of the workload since it is shared by
        every configuration of a sweep).
    quality:
        Precision/recall under the paper's rule.
    stats:
        Engine instrumentation (comparison/combine counts, signature
        memory, ...).
    matches:
        The raw match events.
    config:
        The configuration that produced this result.
    metrics:
        The run's full metrics snapshot (the ``repro.obs/1`` JSON
        schema): every ``stats`` counter, the per-phase wall-clock
        timers, and runner-level gauges (``runner.cpu_seconds``,
        ``runner.prepare_seconds``). Benchmarks dump this next to their
        figures.
    """

    cpu_seconds: float
    quality: PrecisionRecall
    stats: EngineStats
    matches: List[Match] = field(repr=False)
    config: DetectorConfig = field(repr=False)
    metrics: Dict[str, object] = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class PreparedWorkload:
    """Sweep-invariant artefacts of one (stream, library, fingerprint).

    Attributes
    ----------
    stream_cell_ids:
        Per-key-frame cell ids of the doctored stream.
    query_cell_ids / query_frames:
        Per-query cell-id arrays and key-frame counts.
    ground_truth:
        Insertion spans for scoring.
    keyframes_per_second:
        Stream cadence.
    prepare_seconds:
        Time spent on feature extraction (the "partial decoding" share of
        the paper's processing time).
    """

    stream_cell_ids: np.ndarray = field(repr=False)
    query_cell_ids: Dict[int, np.ndarray] = field(repr=False)
    query_frames: Dict[int, int]
    ground_truth: GroundTruth
    keyframes_per_second: float
    fingerprint: FingerprintConfig
    prepare_seconds: float

    @classmethod
    def prepare(
        cls,
        stream: DoctoredStream,
        library: ClipLibrary,
        fingerprint: Optional[FingerprintConfig] = None,
        strategy: str = "spread",
    ) -> "PreparedWorkload":
        """Extract cell-id streams for the stream and every query."""
        fingerprint = fingerprint or FingerprintConfig()
        extractor = FingerprintExtractor(config=fingerprint, strategy=strategy)
        started = time.perf_counter()
        stream_ids = extractor.cell_ids_from_clip(stream.clip)
        query_ids: Dict[int, np.ndarray] = {}
        query_frames: Dict[int, int] = {}
        for qid, clip in library:
            query_ids[qid] = extractor.cell_ids_from_clip(clip)
            query_frames[qid] = clip.num_frames
        elapsed = time.perf_counter() - started
        return cls(
            stream_cell_ids=stream_ids,
            query_cell_ids=query_ids,
            query_frames=query_frames,
            ground_truth=stream.ground_truth,
            keyframes_per_second=stream.keyframes_per_second,
            fingerprint=fingerprint,
            prepare_seconds=elapsed,
        )

    def subset_queries(self, num_queries: int) -> "PreparedWorkload":
        """Restrict to the first ``num_queries`` queries (Figure 9 sweeps).

        Ground truth keeps all occurrences; occurrences of dropped queries
        simply can no longer be detected, mirroring a monitor subscribed
        to fewer queries. Scoring for subsets should therefore only be
        compared within the same subset size.
        """
        kept = sorted(self.query_cell_ids)[:num_queries]
        return PreparedWorkload(
            stream_cell_ids=self.stream_cell_ids,
            query_cell_ids={qid: self.query_cell_ids[qid] for qid in kept},
            query_frames={qid: self.query_frames[qid] for qid in kept},
            ground_truth=self.ground_truth,
            keyframes_per_second=self.keyframes_per_second,
            fingerprint=self.fingerprint,
            prepare_seconds=self.prepare_seconds,
        )


def run_detector(
    prepared: PreparedWorkload,
    config: DetectorConfig,
    family_seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> ExperimentResult:
    """One timed detector run over a prepared workload.

    Query sketching and index construction happen offline (untimed), as
    in the paper; the stopwatch covers stream windowing, sketching, index
    probing and candidate maintenance.

    The configuration picks the detector: Sequential on bit signatures,
    with the index or without it, runs on the production
    :class:`~repro.core.detector.StreamingDetector`; the ``GEOMETRIC``
    order and the ``SKETCH`` representation — the paper's alternatives,
    which production does not run — on the oracle,
    ``repro.reference.ReferenceDetector``. Both report the same counters,
    so a sweep's lines stay comparable in counted work.

    Parameters
    ----------
    registry:
        Optional metrics registry the detector should accumulate into
        (pass ``MetricsRegistry(timing_enabled=False)`` to skip phase
        timing). One is created when omitted; either way the result's
        ``metrics`` field carries its final snapshot.
    """
    family = MinHashFamily(num_hashes=config.num_hashes, seed=family_seed)
    queries = QuerySet.from_cell_ids(
        prepared.query_cell_ids, prepared.query_frames, family
    )
    detector_class = StreamingDetector
    if (
        config.order not in StreamingDetector.engine_classes
        or config.representation not in StreamingDetector.representations
    ):
        from repro.reference import ReferenceDetector

        detector_class = ReferenceDetector
    detector = detector_class(
        config=config,
        queries=queries,
        keyframes_per_second=prepared.keyframes_per_second,
        registry=registry,
    )
    # Route through the live front end and drain the tail explicitly:
    # a stream ending mid-window is processed by flush(), never silently
    # stranded in the monitor's buffer.
    monitor = LiveMonitor(detector)
    started = time.perf_counter()
    matches = monitor.push_cell_ids(prepared.stream_cell_ids)
    matches.extend(monitor.flush())
    cpu_seconds = time.perf_counter() - started
    quality = score_matches(
        matches, prepared.ground_truth, detector.window_frames
    )
    detector.registry.set_gauge("runner.cpu_seconds", cpu_seconds)
    detector.registry.set_gauge(
        "runner.prepare_seconds", prepared.prepare_seconds
    )
    return ExperimentResult(
        cpu_seconds=cpu_seconds,
        quality=quality,
        stats=detector.stats,
        matches=matches,
        config=config,
        metrics=snapshot(detector.registry),
    )
