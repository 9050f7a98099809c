"""Exception hierarchy for the ``repro`` library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the failure domain (codec, feature
extraction, sketching, indexing, detection, workload generation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class ConfigError(ReproError, ValueError):
    """A parameter value is outside its legal domain.

    Raised eagerly at construction time of configuration objects so that a
    bad experiment setup fails before any stream processing starts.
    """


class CodecError(ReproError):
    """The toy MPEG-like codec was asked to do something impossible.

    Examples: encoding a frame whose sides are not multiples of the block
    size, or decoding a bitstream with a corrupted header.
    """


class BitstreamError(CodecError):
    """A compressed bitstream is truncated, corrupt or mis-versioned."""


class VideoError(ReproError):
    """A video clip or frame violates a structural invariant.

    Examples: an empty clip, mismatched frame shapes inside one clip, or an
    edit operation applied with out-of-range strength.
    """


class FeatureError(ReproError):
    """Frame fingerprint extraction failed.

    Examples: a frame too small for the requested block grid, or a selector
    asking for more dimensions than the grid provides.
    """


class PartitionError(ReproError):
    """A feature vector cannot be mapped to a grid-pyramid cell.

    Raised for vectors outside the unit hypercube or dimensionality
    mismatches between the partitioner and the vector.
    """


class SketchError(ReproError):
    """Min-hash sketch construction or combination failed.

    Examples: combining sketches built from different hash families, or
    sketching an empty element set.
    """


class SignatureError(ReproError):
    """Bit-vector signature encoding or combination failed.

    Examples: OR-combining signatures of different widths or built against
    different queries.
    """


class IndexError_(ReproError):
    """The Hash-Query index rejected an operation.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`. Raised for duplicate query ids, unknown query ids
    on removal, or probing with a sketch of the wrong width.
    """


class DetectionError(ReproError):
    """The streaming detection engine hit an inconsistent state."""


class IngestError(ReproError):
    """The multi-stream ingestion layer hit an inconsistent state.

    Examples: a stream session fed chunks out of sequence, a degradation
    policy of ``fail`` encountering a corrupt chunk, or a scheduler asked
    to run with no streams.
    """


class WorkloadError(ReproError):
    """Workload construction (library clips, doctored streams) failed.

    Examples: inserting more clips than the base stream can hold, or a
    ground-truth interval outside the stream.
    """


class EvaluationError(ReproError):
    """Metric computation was asked to score inconsistent inputs."""


class ServeError(ReproError):
    """The sharded detection service hit an inconsistent state.

    Examples: a worker reporting an error for a control message, a
    checkpoint recorded under a different configuration or shard plan,
    or resuming a service whose checkpoint file is missing.
    """


class WorkerDeadError(ServeError):
    """A shard worker's process died with requests outstanding.

    Raised by executor ``recv``/``send`` instead of blocking forever on a
    queue whose producer no longer exists. Carries the worker id and the
    number of replies acked before death so a supervisor (or operator)
    knows exactly where the shard stopped.
    """

    def __init__(
        self, worker_id: int, last_acked: int, message: str = ""
    ) -> None:
        self.worker_id = worker_id
        self.last_acked = last_acked
        super().__init__(
            message
            or (
                f"worker {worker_id} died "
                f"(acked {last_acked} replies before death)"
            )
        )


class WorkerStallError(ServeError):
    """A shard worker is alive but failed to reply within its deadline.

    Raised by executor ``recv`` when a bounded wait expires while the
    worker process still reports as alive — the liveness signal
    that distinguishes a stalled worker from a dead one.
    """

    def __init__(
        self, worker_id: int, last_acked: int, deadline: float
    ) -> None:
        self.worker_id = worker_id
        self.last_acked = last_acked
        self.deadline = deadline
        super().__init__(
            f"worker {worker_id} stalled: no reply within {deadline:.3f}s "
            f"(acked {last_acked} replies so far)"
        )


class ArchiveError(ReproError):
    """The sketch archive hit an inconsistent state.

    Examples: a segment file with a bad CRC or foreign format tag,
    appending windows behind the watermark non-monotonically, probing a
    backfill query sketched under a different hash family, or a
    recovery scan finding a hole between otherwise valid segments.
    """


class GatewayError(ReproError):
    """The network gateway hit a protocol or session error.

    Examples: a corrupt or oversized ``repro.wire/1`` frame, a version
    mismatch at HELLO, a client overrunning its credit window, or a
    resume token that does not match the held stream.
    """
