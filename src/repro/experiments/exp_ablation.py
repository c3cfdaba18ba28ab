"""Ablation: how much fate rests on the intradomain tiebreak (§5.2.1).

The paper observes that even with 50 % of ASes secure and security 1st,
the metric's upper and lower bounds stay more than 10 % apart: a large
population sits on the "knife's edge" between an insecure legitimate
route and an insecure bogus route of identical rank, and only their
(unknowable) intradomain tiebreaks decide.  This experiment measures
that interval width — and the knife's-edge source fraction — at every
step of the Tier 1+2 rollout, for each model.
"""

from __future__ import annotations

from ..core.deployment import Deployment, tier12_rollout
from ..core.rank import BASELINE, SECURITY_MODELS
from ..core.routing import Reach, compute_routing_outcome
from . import report, sampling
from .registry import ExperimentResult, ExperimentSpec, register
from .runner import ExperimentContext
from .scenarios import EvalResults


def _knife_edge_worker(
    ectx: ExperimentContext, pair: tuple[int, int], state: dict
) -> tuple[int, int, int]:
    """(knife-edge sources, happy_lower, num_sources) for one attack."""
    deployment = state["deployment"]
    model = state["model"]
    attacker, destination = pair
    outcome = compute_routing_outcome(
        ectx.graph_ctx, destination, attacker=attacker,
        deployment=deployment, model=model,
    )
    lower, upper = outcome.count_happy()
    # Fixed ASes whose BPR set reaches both roots, read off the flat
    # arrays (the roots reach one endpoint each, so all are sources).
    knife = int(Reach.BOTH)
    both = sum(1 for r, f in zip(outcome._reach, outcome._fixed) if r == knife and f)
    assert both == upper - lower
    return both, lower, outcome.num_sources


def run_tiebreak_ablation(
    ectx: ExperimentContext, results: EvalResults
) -> ExperimentResult:
    rng = ectx.rng("ablation-tiebreak")
    attackers = sampling.nonstub_attackers(ectx.tiers)
    pairs = sampling.sample_pairs(
        rng, attackers, ectx.graph.asns, ectx.scale.rollout_pairs
    )
    steps = [("S=∅", Deployment.empty(), 0)] + [
        (step.label, step.deployment, step.non_stub_count)
        for step in tier12_rollout(ectx.graph, ectx.tiers)
    ]
    rows = []
    for label, deployment, non_stubs in steps:
        models = (BASELINE,) if deployment.size == 0 else SECURITY_MODELS
        for model in models:
            counts = ectx.map_tasks(
                _knife_edge_worker,
                pairs,
                state={"deployment": deployment, "model": model},
            )
            knife = sum(b for b, _, _ in counts)
            total = sum(n for _, _, n in counts)
            rows.append(
                {
                    "step": label,
                    "non_stub_count": non_stubs,
                    "model": model.label,
                    "secured_fraction": deployment.size / len(ectx.graph),
                    "knife_edge_fraction": knife / total if total else 0.0,
                }
            )
    table = report.format_table(
        ["step", "model", "secured", "knife-edge sources (interval width)"],
        [
            [
                row["step"],
                row["model"],
                row["secured_fraction"],
                row["knife_edge_fraction"],
            ]
            for row in rows
        ],
    )
    table += (
        "\n\nknife-edge = sources whose equally-best routes reach both the"
        "\nattacker and the destination; exactly the upper-lower metric gap."
    )
    return ExperimentResult(
        experiment_id="ablation_tiebreak",
        title="Ablation: tiebreak interval width along the Tier 1+2 rollout",
        paper_reference="Section 5.2.1 ('Tiebreaking can seal an AS's fate')",
        paper_expectation=(
            "the gap persists at every rollout step (paper: >10% even at "
            "50% deployment under security 1st) — it is inherent to "
            "partial deployment, not an artifact of any S"
        ),
        rows=rows,
        text=table,
    )


register(
    ExperimentSpec(
        experiment_id="ablation_tiebreak",
        title="Tiebreak interval-width ablation",
        paper_reference="Section 5.2.1",
        paper_expectation="knife-edge population persists at scale",
        run=run_tiebreak_ablation,
    )
)
