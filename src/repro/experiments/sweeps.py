"""Shared sweep engines used by several experiments.

The partition figures (3, 4, 5, 6, the §4.7 source-tier figure, and the
Appendix K LP2 reruns) all reduce to the same computation: for a set of
attacker/destination pairs, classify every source as doomed /
protectable / immune under one or more security models and average.
This module runs that sweep once per pair set and lets each figure read
its own slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from ..core.partitions import (
    DISCONNECTED,
    DOOMED,
    IMMUNE,
    PROTECTABLE,
    classify_partitions,
)
from ..core.rank import RankModel, SecurityModel
from ..core.routing import compute_routing_outcome
from ..topology.tiers import Tier
from .runner import ExperimentContext, cached


@dataclass(frozen=True)
class PartitionFractions:
    """Averaged partition fractions over a pair set."""

    doomed: float
    protectable: float
    immune: float

    @property
    def upper_bound(self) -> float:
        """Max achievable metric for any S: everything not doomed."""
        return 1.0 - self.doomed

    @property
    def lower_bound(self) -> float:
        """Min possible metric for any S: the immune fraction."""
        return self.immune


@dataclass
class PartitionSweep:
    """Result of :func:`partition_sweep` over one pair set."""

    num_pairs: int
    #: average happy-source fraction with S = ∅ (lower bound), the
    #: heavy horizontal line in the paper's partition figures.
    baseline_happy_lower: float
    baseline_happy_upper: float
    #: model label -> averaged fractions.
    fractions: dict[str, PartitionFractions]
    #: (model label, source tier) -> averaged fractions (§4.7 figure).
    by_source_tier: dict[tuple[str, Tier], PartitionFractions]


#: Partition codes in the (doomed, protectable, immune, disconnected)
#: order of every count bucket.
_CODES = (DOOMED, PROTECTABLE, IMMUNE, DISCONNECTED)
#: Stride between tiers in :func:`_tier_base` (above every partition code).
_TIER_STRIDE = 8


def _tier_base(ectx: ExperimentContext) -> tuple[bytes, tuple[Tier, ...]]:
    """Per-AS-index ``tier code * _TIER_STRIDE`` and the tiers by code.

    Adding a :func:`classify_partitions` array to it bytewise keys every
    AS by (source tier, category) in one byte, so the per-tier tallies
    are ``bytes.count`` calls.
    """

    def build() -> tuple[bytes, tuple[Tier, ...]]:
        tiers = tuple(Tier)
        assert len(tiers) * _TIER_STRIDE <= 256
        code_of = {tier: t * _TIER_STRIDE for t, tier in enumerate(tiers)}
        tier_of = ectx.tiers.tier_of
        return bytes(code_of[tier_of[asn]] for asn in ectx.graph_ctx.asns), tiers

    return cached(ectx, "partition_tier_base", build)


def _pair_partition_worker(ectx: ExperimentContext, pair: tuple[int, int], state: dict):
    ctx = ectx.graph_ctx
    models: tuple[RankModel, ...] = state["models"]
    tier_base, tiers = _tier_base(ectx)
    attacker, destination = pair
    baseline_model = RankModel(SecurityModel.BASELINE, models[0].local_preference)
    baseline = compute_routing_outcome(
        ctx, destination, attacker=attacker, model=baseline_model
    )
    happy_lower, happy_upper = baseline.count_happy()

    counts: dict[str, list[int]] = {}
    tier_counts: dict[tuple[str, Tier], list[int]] = {}
    for model in models:
        codes = classify_partitions(ctx, attacker, destination, model, baseline)
        counts[model.label] = [codes.count(code) for code in _CODES]
        keyed = bytes(map(add, tier_base, codes))
        for t, tier in enumerate(tiers):
            base = t * _TIER_STRIDE
            bucket = [keyed.count(base + code) for code in _CODES]
            if any(bucket):
                tier_counts[(model.label, tier)] = bucket
    return happy_lower, happy_upper, baseline.num_sources, counts, tier_counts


def partition_sweep(
    ectx: ExperimentContext,
    pairs: list[tuple[int, int]],
    models: tuple[RankModel, ...],
) -> PartitionSweep:
    """Run the partition classification over ``pairs`` for ``models``."""
    results = ectx.map_tasks(
        _pair_partition_worker, pairs, state={"models": models}
    )
    totals: dict[str, list[int]] = {m.label: [0, 0, 0, 0] for m in models}
    tier_totals: dict[tuple[str, Tier], list[int]] = {}
    happy_lower_sum = 0.0
    happy_upper_sum = 0.0
    for happy_lower, happy_upper, num_sources, counts, tier_counts in results:
        if num_sources:
            happy_lower_sum += happy_lower / num_sources
            happy_upper_sum += happy_upper / num_sources
        for label, bucket in counts.items():
            for i in range(4):
                totals[label][i] += bucket[i]
        for key, bucket in tier_counts.items():
            acc = tier_totals.setdefault(key, [0, 0, 0, 0])
            for i in range(4):
                acc[i] += bucket[i]

    def to_fractions(bucket: list[int]) -> PartitionFractions:
        total = sum(bucket)
        if total == 0:
            return PartitionFractions(0.0, 0.0, 0.0)
        return PartitionFractions(
            doomed=bucket[0] / total,
            protectable=bucket[1] / total,
            immune=bucket[2] / total,
        )

    num_pairs = max(1, len(results))
    return PartitionSweep(
        num_pairs=len(results),
        baseline_happy_lower=happy_lower_sum / num_pairs,
        baseline_happy_upper=happy_upper_sum / num_pairs,
        fractions={label: to_fractions(bucket) for label, bucket in totals.items()},
        by_source_tier={
            key: to_fractions(bucket) for key, bucket in tier_totals.items()
        },
    )
