"""Turn merged spans, counters and pass results into per-layer metrics.

The *ledger* proper is one row per layer — the busy self time of every
span of that layer, in every process, per basic window — reconciled
against the traced pass's wall time per window: rows plus
``ledger.unattributed.us_per_window`` equal ``ledger.e2e.us_per_window``
by construction. On a single-process workload the unattributed row is
the harness loop plus wrapper overhead; where shard or client processes
work in parallel the rows add up to more than the wall clock and the
row goes negative by the overlap.
"""

from __future__ import annotations

from typing import Dict, Optional

from benchmarks.ledger import spec
from benchmarks.ledger.common import PassResult, tail_percentile


def timer_seconds(snapshot: Dict[str, object], name: str) -> float:
    timers = snapshot.get("timers", {})
    return float(timers.get(name, {}).get("seconds", 0.0))


def counter(snapshot: Dict[str, object], name: str) -> float:
    return float(snapshot.get("counters", {}).get(name, 0))


def blocked_seconds(snapshot: Dict[str, object]) -> float:
    return sum(
        float(entry["seconds"])
        for name, entry in snapshot.get("timers", {}).items()
        if name.startswith("serve.blocked.")
    )


def layer_of(span_name: str) -> Optional[str]:
    """The ledger layer a span belongs to: the longest layer name that
    prefixes it."""
    best = None
    for layer in spec.LEDGER_LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            if best is None or len(layer) > len(best):
                best = layer
    return best


def ledger_rows(merged: Dict[str, object], windows: int) -> Dict[str, float]:
    """Layer -> busy self microseconds per basic window."""
    rows = {layer: 0.0 for layer in spec.LEDGER_LAYERS}
    for name, entry in merged["spans"].items():
        layer = layer_of(name)
        if layer is not None and entry["kind"] == "busy":
            rows[layer] += 1e6 * entry["self_s"] / windows
    return rows


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    untraced: PassResult,
    traced: PassResult,
    merged: Dict[str, object],
    reference: PassResult,
    twin_elapsed_s: Optional[float],
) -> Dict[str, float]:
    """Every ``spec.PER_LAYER`` metric; 0 where the layer did no work."""
    spans = merged["spans"]
    outside = merged["outside"]
    values = merged["values"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    def own_of(prefix: str) -> float:
        return sum(
            entry["self_s"] for name, entry in spans.items()
            if name.startswith(prefix)
        )

    def per_call(name: str) -> float:
        return 1e6 * _ratio(total(name), calls(name))

    windows, chunks = traced.windows, traced.chunks
    frames, batches = traced.frames, traced.batches
    snap = traced.snapshot
    combines = counter(snap, "engine.signature_combines")
    encodes = counter(snap, "engine.signature_encodes")

    metrics = {name: 0.0 for name in spec.PER_LAYER_NAMES}
    metrics.update({
        "gateway.protocol.encode_us_per_chunk":
            1e6 * total("gateway.protocol.encode") / chunks,
        "gateway.protocol.decode_us_per_chunk":
            1e6 * total("gateway.protocol.decode") / chunks,
        "serve.queues.roundtrip_us": 1e6 * _ratio(
            merged["residency_s"], merged["residency_count"]
        ),
        "serve.queues.blocked_s": blocked_seconds(snap),
        "serve.frontend.build_us_per_window":
            1e6 * own("serve.frontend.build") / windows,
        "minhash.sketch_us_per_window":
            1e6 * total("minhash.sketch_many") / windows,
        "signature.encode_planes_us_per_window":
            1e6 * own_of("signature.") / windows,
        "serve.shm.publish_us_per_batch": per_call("serve.shm.publish"),
        "serve.shm.read_us_per_batch": per_call("serve.shm.read"),
        "serve.shm.bytes_per_batch": _ratio(
            counter(snap, "serve.transport.shm_bytes"),
            counter(snap, "serve.transport.batches"),
        ),
        "serve.shm.waits": counter(snap, "serve.transport.shm_waits"),
        "index.probe_us_per_window": 1e6 * total("index.probe") / windows,
        "index.related_per_probe": _ratio(
            values.get("index.probe", 0.0), calls("index.probe")
        ),
        "index.build_s": outside.get("index.build", {}).get("total_s", 0.0),
        "index.insert_us": per_call("index.insert"),
        "index.remove_us": per_call("index.remove"),
        "core.process_window_us": per_call("core.process_window"),
        "core.probe_s": timer_seconds(snap, "phase.probe"),
        "core.combine_s": timer_seconds(snap, "phase.combine"),
        "core.bitops_s": timer_seconds(snap, "phase.combine.bitops"),
        "core.prune_s": timer_seconds(snap, "phase.prune"),
        "core.match_emit_s": timer_seconds(snap, "phase.match_emit"),
        "core.combines_per_window": _ratio(
            combines, counter(snap, "engine.windows_processed")
        ),
        "core.prune_ratio": _ratio(
            counter(snap, "engine.signature_prunes"), combines + encodes
        ),
        "serve.collector.merge_us_per_batch":
            1e6 * total("serve.collector.merge") / batches,
        "serve.checkpoint.save_s": _ratio(
            total("serve.checkpoint.save"), calls("serve.checkpoint.save")
        ),
        "serve.checkpoint.load_s":
            outside.get("serve.checkpoint.load", {}).get("total_s", 0.0),
        "archive.append_us_per_window":
            1e6 * total("archive.append") / windows,
        "archive.backfill_us_per_window": 1e6 * _ratio(
            total("archive.backfill.pump"),
            values.get("archive.backfill.pump", 0.0),
        ),
        "codec.dc_decode_us_per_keyframe": 1e6 * (
            own("codec.dc_decode") + own("codec.resync_scan")
        ) / frames,
        "ingest.decode_chunk_us_per_keyframe":
            1e6 * total("ingest.decode_chunk") / frames,
        "ingest.keyframes_damaged_ratio": _ratio(
            counter(snap, "ingest.frames_damaged"),
            counter(snap, "ingest.frames_expected"),
        ),
        "ingest.session_self_us_per_chunk":
            1e6 * own("ingest.session.process_chunk") / chunks,
        "features.fingerprint_us_per_keyframe":
            1e6 * own_of("features.") / frames,
        "partition.cell_id_us_per_keyframe":
            1e6 * total("partition.cell_ids") / frames,
        "baseline.frames_per_s": reference.frames_per_s,
        "trace.overhead_ratio":
            untraced.frames_per_s / traced.frames_per_s - 1.0,
        "trace.spans": float(merged["num_spans"]),
    })
    if twin_elapsed_s is not None:
        metrics["gateway.wire_tax_us_per_chunk"] = (
            1e6 * (untraced.elapsed_s - twin_elapsed_s) / untraced.chunks
        )
    # Measured with tracing off: the workload-specific user-visible
    # figures that not every workload can report (see README).
    metrics.update(untraced.extra)
    metrics["loadgen.latency_ms_p95"] = tail_percentile(
        untraced.latencies_ms
    )[1]

    rows = ledger_rows(merged, windows)
    e2e = 1e6 * traced.elapsed_s / windows
    for layer, value in rows.items():
        metrics[spec.ledger_row(layer)] = value
    metrics["ledger.e2e.us_per_window"] = e2e
    metrics["ledger.unattributed.us_per_window"] = e2e - sum(rows.values())
    return metrics
