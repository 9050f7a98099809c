"""The streaming copy-detection engine (paper Sections IV-V).

The engine consumes a stream of per-key-frame cell ids, chops it into
basic windows, sketches each window, and maintains a candidate-sequence
list ``C_L`` in Sequential combination order. Each candidate is
continuously scored against the subscribed queries via bit-vector
signatures, with or without the Hash-Query index, and every candidate
whose estimated similarity reaches δ is reported as a detected copy. The
paper's Geometric order and raw sketch comparison run on the oracle,
``repro.reference``.

Public entry point: :class:`~repro.core.detector.StreamingDetector`.
"""

from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.monitor import EngineStats
from repro.core.query import Query, QuerySet
from repro.core.results import Detection, Match, merge_matches

__all__ = [
    "Detection",
    "EngineStats",
    "LiveMonitor",
    "Match",
    "Query",
    "QuerySet",
    "StreamingDetector",
    "merge_matches",
]
