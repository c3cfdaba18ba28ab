"""Section 8 extensions: the paper's proposed mitigations, made runnable.

The conclusion sketches two ideas for limiting protocol downgrade
attacks and evaluates neither; this module does:

* ``hysteresis`` — "add hysteresis to S*BGP, so that an AS does not
  immediately drop a secure route when a 'better' insecure route
  appears": implemented as sticky secure routes in the simulator
  (:class:`~repro.bgpsim.BGPSimulator` with ``secure_hysteresis=True``),
  with the attack injected *after* normal convergence so history
  matters;
* ``islands`` — "deployment scenarios that create islands of secure
  ASes that agree to prioritize security 1st for routes between ASes in
  the island": implemented as a mixed policy assignment
  (:func:`~repro.bgpsim.policy.island_assignment`).
"""

from __future__ import annotations

from ..bgpsim import BGPSimulator, PolicyAssignment
from ..bgpsim.policy import island_assignment
from ..core.deployment import Deployment
from ..core.rank import SECURITY_FIRST, SECURITY_SECOND, SECURITY_THIRD
from ..topology import gadgets
from ..topology.tiers import Tier
from . import report, sampling
from .registry import ExperimentResult, ExperimentSpec, register
from .runner import ExperimentContext, cached
from .scenarios import EvalResults


def _downgrade_counts(
    graph,
    destination: int,
    attacker: int,
    deployment: Deployment,
    policies: PolicyAssignment,
    hysteresis: bool,
) -> tuple[int, int]:
    """(downgraded, unhappy) after injecting the attack post-convergence."""
    sim = BGPSimulator(
        graph,
        destination,
        deployment=deployment,
        policies=policies,
        secure_hysteresis=hysteresis,
    )
    sim.run()
    secure_before = {
        asn for asn in graph.asns if sim.uses_secure_route(asn)
    }
    sim.inject_attacker(attacker)
    sim.run()
    downgraded = sum(
        1
        for asn in secure_before
        if asn != attacker and not sim.uses_secure_route(asn)
    )
    unhappy = sum(
        1
        for asn in graph.asns
        if asn not in (destination, attacker) and sim.routes_to_attacker(asn)
    )
    return downgraded, unhappy


#: Catalog deployment the sampled hysteresis attacks run under.
_HYSTERESIS_DEPLOYMENT = "t12_full"


def _hysteresis_worker(
    ectx: ExperimentContext, task: tuple, state: dict
) -> tuple[int, int]:
    """:func:`_downgrade_counts` of one (model, hysteresis, d, m) task."""
    model, hysteresis, destination, attacker = task
    return _downgrade_counts(
        ectx.graph,
        destination,
        attacker,
        ectx.catalog.get(_HYSTERESIS_DEPLOYMENT),
        PolicyAssignment.uniform(model),
        hysteresis,
    )


def run_hysteresis(ectx: ExperimentContext, results: EvalResults) -> ExperimentResult:
    rows = []

    # Part 1: the Figure 2 gadget — the canonical downgrade, cured.
    gadget = gadgets.figure2_protocol_downgrade()
    deployment = Deployment.of(gadget.secure)
    for hysteresis in (False, True):
        downgraded, unhappy = _downgrade_counts(
            gadget.graph,
            gadget.destination,
            gadget.attacker,
            deployment,
            PolicyAssignment.uniform(SECURITY_SECOND),
            hysteresis,
        )
        rows.append(
            {
                "workload": "figure-2 gadget (sec 2nd)",
                "hysteresis": hysteresis,
                "downgraded": downgraded,
                "unhappy": unhappy,
            }
        )

    # Part 2: sampled attacks on the synthetic graph, one pool task per
    # simulator run, summed per (model, hysteresis) in loop order.
    deployment = ectx.catalog.get(_HYSTERESIS_DEPLOYMENT)
    rng = ectx.rng("hysteresis")
    secure_dests = sampling.sample_members(
        rng, sorted(deployment.full), max(4, ectx.scale.cp_attackers)
    )
    attackers = sampling.sample_members(
        rng, sampling.nonstub_attackers(ectx.tiers), ectx.scale.cp_attackers
    )
    attacks = [
        (destination, attacker)
        for destination in secure_dests
        for attacker in attackers
        if attacker != destination
    ]
    variants = [
        (model, hysteresis)
        for model in (SECURITY_SECOND, SECURITY_THIRD)
        for hysteresis in (False, True)
    ]
    counts = ectx.map_tasks(
        _hysteresis_worker,
        [variant + attack for variant in variants for attack in attacks],
    )
    runs = len(attacks)
    for v, (model, hysteresis) in enumerate(variants):
        chunk = counts[v * runs : (v + 1) * runs]
        rows.append(
            {
                "workload": f"T1+T2 rollout sweep ({model.label})",
                "hysteresis": hysteresis,
                "downgraded": sum(d for d, _ in chunk) / max(1, runs),
                "unhappy": sum(u for _, u in chunk) / max(1, runs),
            }
        )

    table = report.format_table(
        ["workload", "hysteresis", "avg downgraded", "avg unhappy"],
        [
            [
                row["workload"],
                "on" if row["hysteresis"] else "off",
                f"{row['downgraded']:.1f}",
                f"{row['unhappy']:.1f}",
            ]
            for row in rows
        ],
    )
    return ExperimentResult(
        experiment_id="hysteresis",
        title="§8 extension: secure-route hysteresis vs protocol downgrades",
        paper_reference="Section 8 (proposed, not evaluated, in the paper)",
        paper_expectation=(
            "sticky secure routes should eliminate downgrades for sources "
            "that had secure routes, shrinking the attacker's catch"
        ),
        rows=rows,
        text=table,
    )


def _island(ectx: ExperimentContext) -> frozenset[int]:
    """The secure island: every Tier 2 and CP."""
    tiers = ectx.tiers
    return frozenset(tiers.members(Tier.TIER2)) | frozenset(tiers.members(Tier.CP))


def _island_policies(ectx: ExperimentContext) -> tuple[tuple[str, PolicyAssignment], ...]:
    """(label, policies) of each compared assignment, built once per process."""

    def build() -> tuple[tuple[str, PolicyAssignment], ...]:
        return (
            ("uniform security 3rd", PolicyAssignment.uniform(SECURITY_THIRD)),
            (
                "island security 1st",
                island_assignment(
                    _island(ectx), inside=SECURITY_FIRST, outside=SECURITY_THIRD
                ),
            ),
        )

    return cached(ectx, "island_policies", build)


def _islands_worker(
    ectx: ExperimentContext, task: tuple[int, int, int], state: dict
) -> tuple[int, int]:
    """(island members hijacked, sources hijacked) for one attack."""
    p, destination, attacker = task
    island = _island(ectx)
    sim = BGPSimulator(
        ectx.graph,
        destination,
        deployment=Deployment.of(island),
        policies=_island_policies(ectx)[p][1],
        attacker=attacker,
    )
    sim.run()
    island_unhappy = total_unhappy = 0
    for asn in ectx.graph.asns:
        if asn in (destination, attacker):
            continue
        if sim.routes_to_attacker(asn):
            total_unhappy += 1
            if asn in island:
                island_unhappy += 1
    return island_unhappy, total_unhappy


def run_islands(ectx: ExperimentContext, results: EvalResults) -> ExperimentResult:
    """Island members pledge security-1st among themselves (§8)."""
    island = _island(ectx)
    rng = ectx.rng("islands")
    dests = sampling.sample_members(
        rng, sorted(island), max(4, ectx.scale.cp_attackers)
    )
    attackers = sampling.sample_members(
        rng,
        [a for a in sampling.nonstub_attackers(ectx.tiers) if a not in island],
        ectx.scale.cp_attackers,
    )
    attacks = [
        (destination, attacker)
        for destination in dests
        for attacker in attackers
        if attacker != destination
    ]
    policies = _island_policies(ectx)
    counts = ectx.map_tasks(
        _islands_worker,
        [(p,) + attack for p in range(len(policies)) for attack in attacks],
    )
    runs = len(attacks)
    rows = []
    for p, (label, _) in enumerate(policies):
        chunk = counts[p * runs : (p + 1) * runs]
        rows.append(
            {
                "policies": label,
                "island_unhappy_per_attack": sum(i for i, _ in chunk) / max(1, runs),
                "total_unhappy_per_attack": sum(t for _, t in chunk) / max(1, runs),
            }
        )
    table = report.format_table(
        ["policy assignment", "island members hijacked", "all sources hijacked"],
        [
            [
                row["policies"],
                f"{row['island_unhappy_per_attack']:.1f}",
                f"{row['total_unhappy_per_attack']:.1f}",
            ]
            for row in rows
        ],
    )
    table += (
        "\n\n(island = all Tier 2s + CPs, fully secure; attacks on island "
        "destinations by outsiders; averages per attack)"
    )
    return ExperimentResult(
        experiment_id="islands",
        title="§8 extension: security-1st islands",
        paper_reference="Section 8 (proposed, not evaluated, in the paper)",
        paper_expectation=(
            "island members protect each other's destinations even while "
            "the rest of the Internet stays security-3rd"
        ),
        rows=rows,
        text=table,
    )


register(
    ExperimentSpec(
        experiment_id="hysteresis",
        title="Secure-route hysteresis (§8 extension)",
        paper_reference="Section 8",
        paper_expectation="downgrades eliminated for secure-routed sources",
        run=run_hysteresis,
        supports_ixp=False,
    )
)
register(
    ExperimentSpec(
        experiment_id="islands",
        title="Security-1st islands (§8 extension)",
        paper_reference="Section 8",
        paper_expectation="island destinations protected",
        run=run_islands,
        supports_ixp=False,
    )
)
