"""Shard planning: partitioning a query set across detection workers.

Query sharding follows the large-scale video-search pattern (partition
the reference/query set, broadcast the stream, merge centrally): because
all of the engine's candidate state is keyed per query, giving
each worker a disjoint subset of the queries preserves per-shard
detection semantics exactly — the union of the shard outputs is the
single-process output.

:class:`ShardPlanner` balances the shards with a longest-processing-time
greedy: queries are weighted either uniformly (``count`` strategy) or by
their candidate cap ``ceil(λL/w)`` (``load`` strategy — the per-window
candidate-pair work the Sequential order performs for that query), then
assigned heaviest-first to the least-loaded shard. The assignment is
deterministic (ties break toward the lower qid / lower shard id), so a
resumed service reconstructs the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.query import Query, QuerySet
from repro.errors import ServeError

__all__ = ["ShardPlan", "ShardPlanner"]

STRATEGIES = ("count", "load")


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of query ids to shards.

    Attributes
    ----------
    shards:
        Per-shard tuples of qids, each sorted ascending. Every
        subscribed qid appears in exactly one shard; no shard is empty.
    loads:
        Per-shard summed weights under the planning strategy.
    strategy:
        ``"count"`` or ``"load"``.
    """

    shards: Tuple[Tuple[int, ...], ...]
    loads: Tuple[int, ...]
    strategy: str

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, qid: int) -> int:
        """The shard index holding ``qid``."""
        for index, shard in enumerate(self.shards):
            if qid in shard:
                return index
        raise ServeError(f"query {qid} is not in the shard plan")

    def imbalance(self) -> float:
        """``max(load) / mean(load)`` — 1.0 is a perfect balance."""
        total = sum(self.loads)
        if total == 0:
            return 1.0
        return max(self.loads) * self.num_shards / total


class ShardPlanner:
    """Partitions a :class:`~repro.core.query.QuerySet` into balanced
    shards.

    Parameters
    ----------
    num_shards:
        Requested worker count. When it exceeds the number of queries,
        the plan holds one query per shard (a shard cannot be empty:
        each worker runs a detector, and a detector needs queries).
    strategy:
        ``"count"`` — every query weighs 1 (balances query counts);
        ``"load"`` — a query weighs its candidate cap ``ceil(λL/w)``
        (balances per-window candidate work).
    """

    def __init__(self, num_shards: int, strategy: str = "load") -> None:
        if num_shards < 1:
            raise ServeError(
                f"num_shards must be at least 1, got {num_shards}"
            )
        if strategy not in STRATEGIES:
            raise ServeError(
                f"unknown shard strategy {strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        self.num_shards = num_shards
        self.strategy = strategy

    def plan(
        self,
        queries: QuerySet,
        window_frames: int,
        tempo_scale: float,
    ) -> ShardPlan:
        """Assign every query to a shard (LPT greedy, deterministic)."""
        weights = self._weights(queries, window_frames, tempo_scale)
        num_shards = min(self.num_shards, len(weights))
        loads = [0] * num_shards
        shards: List[List[int]] = [[] for _ in range(num_shards)]
        # Heaviest first; ties toward the lower qid so the order — and
        # with it the whole plan — is reproducible.
        for qid, weight in sorted(
            weights.items(), key=lambda item: (-item[1], item[0])
        ):
            target = min(range(num_shards), key=lambda i: (loads[i], i))
            shards[target].append(qid)
            loads[target] += weight
        return ShardPlan(
            shards=tuple(tuple(sorted(shard)) for shard in shards),
            loads=tuple(loads),
            strategy=self.strategy,
        )

    def place(self, loads: Sequence[int]) -> int:
        """Pick the shard for one *new* query given current shard loads.

        The online counterpart of :meth:`plan`'s greedy step: the
        least-loaded shard wins, ties toward the lower shard id — the
        same deterministic rule, so a churned service and a re-planned
        one agree on where a marginal query lands.
        """
        if not loads:
            raise ServeError("cannot place a query across zero shards")
        return min(range(len(loads)), key=lambda i: (loads[i], i))

    def weight(
        self, query: Query, window_frames: int, tempo_scale: float
    ) -> int:
        """One query's load weight under this planner's strategy."""
        if self.strategy == "count":
            return 1
        return query.max_candidate_windows(window_frames, tempo_scale)

    def _weights(
        self,
        queries: QuerySet,
        window_frames: int,
        tempo_scale: float,
    ) -> Dict[int, int]:
        if self.strategy == "count":
            return {qid: 1 for qid in queries.query_ids}
        return queries.max_windows_map(window_frames, tempo_scale)
