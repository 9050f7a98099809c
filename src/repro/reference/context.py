"""The oracle's context: one sketch, one signature, one query at a time.

:class:`ReferenceContext` is :class:`~repro.core.context.EvalContext`
plus the instrumented pair-at-a-time primitives the scalar engines are
written in — sketch similarity and combination (the ``C_comp`` /
``C_comb`` of Eq. (4)), signature encode and OR, the per-(window, query)
memoised lazy encode — and a window payload that keeps its per-query
artefacts as dicts and sets keyed by qid, filled by the literal Figure 5
walk (:func:`~repro.reference.probe.probe_index_reference`) rather than
the production probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.core.context import EvalContext
from repro.minhash.sketch import Sketch
from repro.minhash.windows import BasicWindow
from repro.reference.probe import probe_index_reference
from repro.signature.bitsig import BitSignature
from repro.signature.pruning import violates_lemma2

__all__ = ["ReferenceContext", "ReferencePayload"]


@dataclass
class ReferencePayload:
    """A basic window plus its per-query comparison artefacts.

    Attributes
    ----------
    window:
        The sketched basic window.
    sigs:
        Bit mode: window-vs-query signatures, keyed by qid. Only the
        *related* queries appear (all queries when no index is used, the
        probe's ``R_L`` when it is).
    related:
        The qids relevant to this window (equals ``sigs.keys()`` in bit
        mode; in sketch mode it is the probe result or all queries).
    lazy_sigs:
        Memo for window-vs-query signatures computed on demand for
        queries outside ``sigs`` (candidates that track a query this
        window is not related to still need the window's relation bits).
        Shared by every candidate extended with this window.
    """

    window: BasicWindow
    sigs: Dict[int, BitSignature] = field(default_factory=dict)
    related: Set[int] = field(default_factory=set)
    lazy_sigs: Dict[int, BitSignature] = field(default_factory=dict)


class ReferenceContext(EvalContext):
    """``EvalContext`` with the scalar primitives and the dict payload."""

    @property
    def all_qids(self) -> Set[int]:
        """Every subscribed query id."""
        return set(self.queries.query_ids)

    def _query_matrix(self) -> tuple:
        """``(qids, (m, K) value matrix)`` for batched window encoding."""
        columns = self.query_columns()
        return (list(columns.qids), columns.matrix)

    # ------------------------------------------------------------------
    # derived predicates
    # ------------------------------------------------------------------

    def within_cap(self, qid: int, num_windows: int) -> bool:
        """Whether a candidate of ``num_windows`` windows may still match
        query ``qid`` (the per-query λL bound)."""
        return num_windows <= self.max_windows[qid]

    def prunable(self, signature: BitSignature) -> bool:
        """Lemma 2 check, honouring the config's ``prune`` switch."""
        return self.config.prune and violates_lemma2(
            signature, self.config.threshold
        )

    # ------------------------------------------------------------------
    # instrumented primitives
    # ------------------------------------------------------------------

    def similarity(self, sketch: Sketch, qid: int) -> float:
        """Sketch-vs-query similarity (one ``C_comp`` of Eq. (4))."""
        self.registry.inc("engine.sketch_comparisons")
        return sketch.similarity(self.queries.get(qid).sketch)

    def combine(self, left: Sketch, right: Sketch) -> Sketch:
        """Sketch combination (one ``C_comb`` of Eq. (4))."""
        self.registry.inc("engine.sketch_combines")
        return left.combine(right)

    def encode_signature(self, sketch: Sketch, qid: int) -> BitSignature:
        """Encode a bit signature from a sketch pair (O(K) operation)."""
        self.registry.inc("engine.signature_encodes")
        return BitSignature.encode(sketch, self.queries.get(qid).sketch)

    def or_signatures(self, left: BitSignature, right: BitSignature) -> BitSignature:
        """Bitwise-OR signature combination (the cheap bit operation)."""
        self.registry.inc("engine.signature_combines")
        return left.combine(right)

    def window_signature(
        self, payload: ReferencePayload, qid: int
    ) -> BitSignature:
        """Window-vs-query signature, memoised on the payload.

        Candidates tracking a query the window is not related to all need
        the same relation bits; the encode is performed once per
        (window, query) pair.
        """
        signature = payload.sigs.get(qid)
        if signature is not None:
            return signature
        signature = payload.lazy_sigs.get(qid)
        if signature is None:
            signature = self.encode_signature(payload.window.sketch, qid)
            payload.lazy_sigs[qid] = signature
        return signature

    # ------------------------------------------------------------------
    # window payload construction
    # ------------------------------------------------------------------

    def _window_payload(
        self,
        window: BasicWindow,
        planes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> ReferencePayload:
        # ``planes`` (the serving front end's precomputed encode) carry
        # the bits the oracle computes for itself; it never reads them.
        if self.index is not None:
            self.registry.inc("engine.index_probes")
            related_list = probe_index_reference(
                window.sketch,
                self.index,
                self.config.threshold,
                prune=self.config.prune and self.is_bit,
            )
            if self.is_bit:
                sigs = {
                    element.qid: element.signature(self.config.num_hashes)
                    for element in related_list
                }
                return ReferencePayload(
                    window=window, sigs=sigs, related=set(sigs)
                )
            return ReferencePayload(
                window=window,
                related={element.qid for element in related_list},
            )

        if self.is_bit:
            qids, matrix = self._query_matrix()
            sigs: Dict[int, BitSignature] = {}
            # Batched encode: compare the window's K values against the
            # (m, K) query matrix in one shot and pack both planes row-wise.
            values = window.sketch.values
            ge_planes = np.packbits(
                values[np.newaxis, :] <= matrix, axis=1, bitorder="little"
            )
            lt_planes = np.packbits(
                values[np.newaxis, :] < matrix, axis=1, bitorder="little"
            )
            self.registry.inc("engine.signature_encodes", len(qids))
            for row, qid in enumerate(qids):
                signature = BitSignature._raw(
                    int.from_bytes(ge_planes[row].tobytes(), "little"),
                    int.from_bytes(lt_planes[row].tobytes(), "little"),
                    self.config.num_hashes,
                )
                if self.prunable(signature):
                    self.registry.inc("engine.signature_prunes")
                    continue
                sigs[qid] = signature
            return ReferencePayload(
                window=window, sigs=sigs, related=set(sigs)
            )

        return ReferencePayload(window=window, related=set(self.all_qids))
