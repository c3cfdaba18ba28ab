"""Protocol downgrade attacks (Section 3.2, Appendix F.1, Figure 13).

A source suffers a *protocol downgrade* when it uses a secure route to
the destination under normal conditions but an insecure (typically
bogus) route during the attack.  Theorem 3.1 guarantees this cannot
happen in the security 1st model; in the 2nd and 3rd models it is the
dominant reason partial deployments fail to protect anyone (§5.3.1).

Following Appendix F.1, a downgrade is detected by comparing two routing
computations: normal conditions (``m = ∅``) and under attack, both with
the same deployment and model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..topology.graph import ASGraph
from .deployment import Deployment
from .partitions import IMMUNE, classify_partitions
from .rank import RankModel
from .routing import RoutingContext, RoutingOutcome, compute_routing_outcome


@dataclass(frozen=True)
class DowngradeAnalysis:
    """Secure-route fate for one ``(m, d, S)`` attack.

    Attributes:
        secure_normal: sources using secure routes with no attacker.
        secure_attack: sources still using secure routes under attack.
        downgraded: sources that lost their secure route to the attack
            (``secure_normal − secure_attack``).
    """

    attacker: int
    destination: int
    secure_normal: frozenset[int]
    secure_attack: frozenset[int]

    @property
    def downgraded(self) -> frozenset[int]:
        return self.secure_normal - self.secure_attack

    @property
    def retained(self) -> frozenset[int]:
        return self.secure_normal & self.secure_attack


def downgrade_analysis(
    topology: ASGraph | RoutingContext,
    attacker: int,
    destination: int,
    deployment: Deployment,
    model: RankModel,
    normal_outcome: RoutingOutcome | None = None,
) -> DowngradeAnalysis:
    """Detect protocol downgrades for one attack (Appendix F.1).

    Args:
        topology: graph or prebuilt context.
        attacker / destination: the attack pair.
        deployment: the secure set ``S``.
        model: routing-policy model.
        normal_outcome: optional precomputed normal-conditions outcome
            (reuse it when sweeping attackers against one destination).
    """
    ctx = topology if isinstance(topology, RoutingContext) else RoutingContext(topology)
    if normal_outcome is None:
        normal_outcome = compute_routing_outcome(
            ctx, destination, attacker=None, deployment=deployment, model=model
        )
    attack_outcome = compute_routing_outcome(
        ctx, destination, attacker=attacker, deployment=deployment, model=model
    )
    # The attacker is a source of the normal-conditions outcome but not
    # of the attack outcome; drop it so the two sets are comparable.
    secure_normal = normal_outcome.secure_sources() - {attacker}
    secure_attack = attack_outcome.secure_sources()
    return DowngradeAnalysis(
        attacker=attacker,
        destination=destination,
        secure_normal=secure_normal,
        secure_attack=secure_attack,
    )


@dataclass(frozen=True)
class SecureRouteFate:
    """Figure 13's per-destination bar: what happens to secure routes.

    All three numbers are fractions of the source population, with the
    downgraded/immune/other splits averaged over the attacker set.
    """

    destination: int
    #: fraction of sources with secure routes under normal conditions,
    #: averaged over attacks (each attack excludes the attacker itself,
    #: so the three splits below sum exactly to this bar).
    secure_normal_fraction: float
    #: average fraction lost to protocol downgrade attacks.
    downgraded_fraction: float
    #: average fraction of retained secure routes at *immune* sources —
    #: ASes that would have avoided the attack even with S = ∅.
    retained_immune_fraction: float
    #: average fraction of retained secure routes at non-immune sources.
    retained_other_fraction: float


def secure_route_fate(
    topology: ASGraph | RoutingContext,
    destination: int,
    attackers: Sequence[int],
    deployment: Deployment,
    model: RankModel,
) -> SecureRouteFate:
    """Figure 13 analysis for one destination, averaged over attackers."""
    ctx = topology if isinstance(topology, RoutingContext) else RoutingContext(topology)
    normal_outcome = compute_routing_outcome(
        ctx, destination, attacker=None, deployment=deployment, model=model
    )
    num_sources = ctx.n - 1
    secure_normal = normal_outcome.secure_sources()
    if num_sources == 0 or not attackers:
        return SecureRouteFate(destination, 0.0, 0.0, 0.0, 0.0)

    secure_normal_sum = 0.0
    downgraded_sum = 0.0
    retained_immune_sum = 0.0
    retained_other_sum = 0.0
    used = 0
    index_of = ctx.index_of
    for attacker in attackers:
        if attacker == destination:
            continue
        used += 1
        analysis = downgrade_analysis(
            ctx, attacker, destination, deployment, model, normal_outcome
        )
        codes = classify_partitions(ctx, attacker, destination, model)
        retained = analysis.retained
        retained_immune = sum(codes[index_of[asn]] == IMMUNE for asn in retained)
        secure_normal_sum += len(analysis.secure_normal)
        downgraded_sum += len(analysis.downgraded)
        retained_immune_sum += retained_immune
        retained_other_sum += len(retained) - retained_immune
    if used == 0:
        return SecureRouteFate(destination, len(secure_normal) / num_sources, 0.0, 0.0, 0.0)
    scale = 1.0 / (used * num_sources)
    return SecureRouteFate(
        destination=destination,
        secure_normal_fraction=secure_normal_sum * scale,
        downgraded_fraction=downgraded_sum * scale,
        retained_immune_fraction=retained_immune_sum * scale,
        retained_other_fraction=retained_other_sum * scale,
    )
