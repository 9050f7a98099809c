"""Executable specification: the paper's algorithms, one pair at a time.

Test-only: nothing under ``src/repro/`` outside this package imports it
(a test asserts so). The scalar Sequential and Geometric engines, the
dict-and-set window payload they consume and the literal row-by-row
ProbeIndex walk are the oracle the production (columnar, batched) code
is held to, match for match and counter for counter
(``tests/test_engine_reference.py``, ``tests/test_index.py``). The
oracle is never sharded, supervised, backfilled or checkpointed —
``repro.serve`` refuses it.
"""

from repro.config import CombinationOrder
from repro.core.detector import StreamingDetector
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

    Only what it is built from differs, so a test drives oracle and
    production through the same ``process_window`` / ``process_cell_ids``
    / ``subscribe`` / ``unsubscribe`` / ``acknowledge_gap`` calls and
    compares matches and counters.
    """

    context_class = ReferenceContext
    engine_classes = {
        CombinationOrder.SEQUENTIAL: SequentialEngine,
        CombinationOrder.GEOMETRIC: GeometricEngine,
    }
