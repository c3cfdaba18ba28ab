"""Figure 13: the fate of secure routes to content providers (§5.3.1).

With S = {Tier 1s, CPs, and all their stubs} and security 3rd, the paper
shows that during attacks (1) most secure routes are lost to protocol
downgrades and (2) nearly all surviving secure routes belong to sources
that were immune anyway — which is why this deployment barely moves the
metric.
"""

from __future__ import annotations

from ..core.downgrade import secure_route_fate
from ..topology.tiers import PAPER_CONTENT_PROVIDERS, Tier
from ..core.rank import SECURITY_THIRD
from . import report, sampling
from .registry import ExperimentResult, ExperimentSpec, register
from .runner import ExperimentContext
from .scenarios import EvalResults


def _cp_fate_worker(ectx: ExperimentContext, cp: int, state: dict) -> dict:
    """One CP's Figure 13 row, averaged over the sampled attackers."""
    fate = secure_route_fate(
        ectx.graph_ctx,
        cp,
        state["attackers"],
        ectx.catalog.get("t1_stubs_cp"),
        SECURITY_THIRD,
    )
    return {
        "cp": cp,
        "name": PAPER_CONTENT_PROVIDERS.get(cp, f"AS{cp}"),
        "secure_normal": fate.secure_normal_fraction,
        "downgraded": fate.downgraded_fraction,
        "retained_immune": fate.retained_immune_fraction,
        "retained_other": fate.retained_other_fraction,
    }


def run(ectx: ExperimentContext, results: EvalResults) -> ExperimentResult:
    cps = ectx.tiers.members(Tier.CP)
    if not cps:
        return ExperimentResult(
            experiment_id="fig13",
            title="Secure-route fate at CP destinations",
            paper_reference="Figure 13",
            paper_expectation="n/a",
            rows=[],
            text="(no content providers in this topology)",
        )
    rng = ectx.rng("fig13")
    attackers = sampling.sample_members(
        rng, sampling.nonstub_attackers(ectx.tiers), ectx.scale.cp_attackers
    )
    rows = ectx.map_tasks(_cp_fate_worker, cps, state={"attackers": attackers})
    rows.sort(key=lambda r: -r["secure_normal"])
    table = report.format_table(
        ["CP", "secure (normal)", "downgraded", "retained+immune", "retained+other"],
        [
            [
                f"AS{row['cp']} {row['name']}",
                row["secure_normal"],
                row["downgraded"],
                row["retained_immune"],
                row["retained_other"],
            ]
            for row in rows
        ],
    )
    total_secure = sum(r["secure_normal"] for r in rows)
    total_down = sum(r["downgraded"] for r in rows)
    total_immune = sum(r["retained_immune"] for r in rows)
    summary = ""
    if total_secure > 0:
        summary = (
            f"\n\nacross all CPs: {total_down / total_secure:.0%} of secure "
            f"routes lost to downgrades; {total_immune / total_secure:.0%} "
            "retained by immune sources"
        )
    return ExperimentResult(
        experiment_id="fig13",
        title="Secure-route fate at CP destinations (S = T1s+CPs+stubs, sec 3rd)",
        paper_reference="Figure 13 (Figure 21 for IXP)",
        paper_expectation=(
            "most secure routes are lost to protocol downgrades; most "
            "surviving ones belong to immune sources"
        ),
        rows=rows,
        text=table + summary,
    )


register(
    ExperimentSpec(
        experiment_id="fig13",
        title="Secure-route fate at CP destinations",
        paper_reference="Figure 13",
        paper_expectation="downgrades dominate; survivors are immune",
        run=run,
    )
)
