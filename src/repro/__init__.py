"""repro — Continuous Content-Based Copy Detection over Streaming Videos.

A complete, self-contained reproduction of Yan, Ooi & Zhou (ICDE 2008):
min-hash sketches over grid-pyramid frame signatures, bit-vector
comparison signatures with Lemma-2 pruning, the Hash-Query continuous-
query index, Sequential (and, on the oracle, Geometric) candidate
maintenance, the Seq and Warp baselines, and a synthetic-video substrate
(toy MPEG codec, content generator, editing attacks) standing in for the
paper's real videos.

Quickstart
----------
>>> from repro import (ScaleProfile, ClipLibrary, StreamDoctor,
...                    DetectorConfig, PreparedWorkload, run_detector)
>>> profile = ScaleProfile.smoke_scale()
>>> library = ClipLibrary.generate(profile, seed=7)
>>> stream = StreamDoctor(profile, seed=7).build_vs1(library)
>>> prepared = PreparedWorkload.prepare(stream, library)
>>> result = run_detector(prepared, DetectorConfig(num_hashes=200))
>>> result.quality.recall > 0
True
"""

from repro.config import (
    CombinationOrder,
    DetectorConfig,
    FingerprintConfig,
    Representation,
    ScaleProfile,
    TABLE1_DEFAULTS,
)
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.monitor import EngineStats
from repro.core.query import Query, QuerySet
from repro.core.results import Detection, Match, merge_matches
from repro.errors import ReproError, ServeError
from repro.evaluation.metrics import PrecisionRecall, score_matches
from repro.evaluation.runner import ExperimentResult, PreparedWorkload, run_detector
from repro.features.pipeline import FingerprintExtractor
from repro.index.hq import HashQueryIndex
from repro.index.probe import probe_index
from repro.minhash.bottomk import BottomKFamily, BottomKSketch
from repro.minhash.family import MinHashFamily
from repro.minhash.sketch import Sketch
from repro.minhash.windows import BasicWindow, iter_basic_windows
from repro.obs.export import logfmt_digest, snapshot, to_json
from repro.obs.merge import merge_snapshots
from repro.obs.registry import MetricsRegistry, PhaseTimer
from repro.partition.gridpyramid import GridPyramidPartitioner
from repro.persistence import load_query_set, save_query_set
from repro.serve import (
    BackpressurePolicy,
    CheckpointManager,
    DetectionService,
    MatchCollector,
    ServiceCheckpoint,
    ShardPlan,
    ShardPlanner,
)
from repro.signature.bitsig import BitSignature
from repro.video.clip import VideoClip
from repro.video.synth import ClipSynthesizer
from repro.workloads.doctor import DoctoredStream, StreamDoctor
from repro.workloads.groundtruth import GroundTruth, Occurrence
from repro.workloads.library import ClipLibrary

__version__ = "1.0.0"

__all__ = [
    "BackpressurePolicy",
    "BasicWindow",
    "BitSignature",
    "BottomKFamily",
    "BottomKSketch",
    "CheckpointManager",
    "ClipLibrary",
    "ClipSynthesizer",
    "CombinationOrder",
    "Detection",
    "DetectionService",
    "DetectorConfig",
    "DoctoredStream",
    "EngineStats",
    "ExperimentResult",
    "FingerprintConfig",
    "FingerprintExtractor",
    "GridPyramidPartitioner",
    "GroundTruth",
    "HashQueryIndex",
    "LiveMonitor",
    "Match",
    "MatchCollector",
    "MetricsRegistry",
    "MinHashFamily",
    "Occurrence",
    "PhaseTimer",
    "PrecisionRecall",
    "PreparedWorkload",
    "Query",
    "QuerySet",
    "Representation",
    "ReproError",
    "ScaleProfile",
    "ServeError",
    "ServiceCheckpoint",
    "ShardPlan",
    "ShardPlanner",
    "Sketch",
    "StreamDoctor",
    "StreamingDetector",
    "TABLE1_DEFAULTS",
    "VideoClip",
    "__version__",
    "iter_basic_windows",
    "load_query_set",
    "logfmt_digest",
    "merge_matches",
    "merge_snapshots",
    "probe_index",
    "run_detector",
    "save_query_set",
    "score_matches",
    "snapshot",
    "to_json",
]
