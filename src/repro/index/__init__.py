"""The Hash-Query index over continuous-query sketches (Section V-C).

With many subscribed query videos, comparing every basic window against
every query sketch wastes both CPU and memory: a window is typically
relevant to at most a handful of queries. The Hash-Query structure stores
the ``m x K`` query min-hash values as ``K`` value-sorted rows linked by
``up``/``down`` position pointers, so that probing a window sketch touches
only the queries that share at least one min-hash value with it — and
yields their bit signatures as a by-product. Here the rows and the query
at every position are arrays; the pointers are derived from them.
"""

from repro.index.hq import HashQueryIndex, IndexEntry
from repro.index.probe import RelatedQueries, probe_index

__all__ = [
    "HashQueryIndex",
    "IndexEntry",
    "RelatedQueries",
    "probe_index",
]
