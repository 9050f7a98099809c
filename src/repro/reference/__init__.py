"""Executable specification: the paper's algorithms, one pair at a time.

The scalar Sequential and Geometric engines, the dict-and-set window
payload they consume and the literal row-by-row ProbeIndex walk are the
oracle the production (columnar, batched) code is held to, match for
match and counter for counter (``tests/test_engine_reference.py``,
``tests/test_index.py``). The oracle also runs what production does
not: the Geometric order (Section IV-A, Figure 2) and the paper's
baseline representation, Section IV's min-hash sketch vectors.
:func:`repro.evaluation.runner.run_detector` routes a ``GEOMETRIC`` or
``SKETCH`` configuration here, so the paper benches' Geometric and
sketch lines time the paper's algorithms. Nothing else outside this package imports it
(a test asserts so), and ``import repro`` does not load it. The oracle
is never sharded, supervised, backfilled or checkpointed —
``repro.serve`` refuses it.
"""

from typing import List

import numpy as np

from repro.config import CombinationOrder, Representation
from repro.core.detector import StreamingDetector
from repro.core.results import Match
from repro.minhash.sketch import Sketch
from repro.minhash.windows import BasicWindow, WindowBlock
from repro.reference.context import ReferenceContext, ReferencePayload
from repro.reference.engine_geometric import GeometricEngine
from repro.reference.engine_sequential import SequentialEngine
from repro.reference.probe import probe_index_reference, related_view

__all__ = [
    "GeometricEngine",
    "ReferenceContext",
    "ReferenceDetector",
    "ReferencePayload",
    "SequentialEngine",
    "probe_index_reference",
    "related_view",
]


class ReferenceDetector(StreamingDetector):
    """A :class:`StreamingDetector` built from the scalar engines.

    Only what it is built from differs — and that it takes a block one
    window at a time and also runs the Geometric order and the sketch
    representation — so a test drives oracle and production through
    the same ``process_batch`` / ``process_window`` / ``process_cell_ids``
    / ``subscribe`` / ``unsubscribe`` / ``acknowledge_gap`` calls and
    compares matches and counters.
    """

    context_class = ReferenceContext
    engine_classes = {
        CombinationOrder.SEQUENTIAL: SequentialEngine,
        CombinationOrder.GEOMETRIC: GeometricEngine,
    }
    representations = tuple(Representation)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Every match so far, in stream order: the oracle keeps the
        #: whole stream for the tests that compare it (production hands
        #: each call's matches back and keeps none).
        self.matches: List[Match] = []

    def process_batch(self, block: WindowBlock) -> List[List[Match]]:
        per_window = super().process_batch(block)
        for matches in per_window:
            self.matches.extend(matches)
        return per_window

    def _detect(self, block: WindowBlock) -> List[List[Match]]:
        fingerprint = self.queries.family.fingerprint
        per_window = []
        for row in range(len(block)):
            window = BasicWindow(
                index=int(block.indices[row]),
                start_frame=int(block.starts[row]),
                num_frames=int(block.frames[row]),
                cell_ids=np.empty(0, dtype=np.int64),
                sketch=Sketch._raw(block.sketch_values[row], fingerprint),
            )
            payload = self.context.window_payload(window)
            per_window.append(self.engine.process(payload))
        return per_window
