"""Doomed / protectable / immune partitions (Section 4.3, Appendix E).

For a fixed attacker/destination pair ``(m, d)``, every source AS falls
into exactly one of three categories *independently of which ASes deploy
S*BGP*:

* **doomed** — routes through the attacker for every secure set ``S``;
* **immune** — routes to the legitimate destination for every ``S``;
* **protectable** — its fate depends on ``S``.

Averaging the immune (resp. non-doomed) fractions over pairs gives the
deployment-invariant lower (resp. upper) bounds on the security metric
of Section 4.4 — the paper's Figure 3 family.

The computation follows Appendix E exactly:

* **security 3rd** (Corollary E.1): the best route's class *and length*
  are deployment-invariant, so classify by the endpoints of the
  baseline (``S = ∅``) BPR set;
* **security 2nd** (Corollary E.2): only the best route's *class* is
  invariant, so classify by the endpoints of every same-class route
  that *survives* the FixRoutes pruning — i.e. routes through fixed
  neighbors whose own BPR sets still offer them.  (A static
  perceivable-route closure is not enough: a stub whose providers are
  all doomed can only ever learn bogus routes, which is exactly why
  most sources are doomed when a Tier 1 is attacked, §4.6);
* **security 1st** (Observations E.3/E.4): doomed iff every perceivable
  route leads to the attacker; immune iff none does; the paper treats
  everything else (≈ all ASes) as protectable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..topology.graph import ASGraph
from ..topology.relationships import RouteClass
from .perceivable import closure_indices
from .rank import RankModel, SecurityModel
from .routing import RoutingContext, RoutingOutcome, compute_routing_outcome


class Category(enum.Enum):
    """Deployment-invariant fate of a source AS (Table 2)."""

    DOOMED = "doomed"
    PROTECTABLE = "protectable"
    IMMUNE = "immune"
    #: no perceivable route to either endpoint (disconnected inputs only).
    DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class PartitionCounts:
    """Aggregate partition sizes for one (m, d) pair."""

    doomed: int
    protectable: int
    immune: int
    disconnected: int

    @property
    def total(self) -> int:
        return self.doomed + self.protectable + self.immune + self.disconnected

    def fractions(self) -> tuple[float, float, float]:
        """(doomed, protectable, immune) as fractions of all sources."""
        total = self.total
        if total == 0:
            return (0.0, 0.0, 0.0)
        return (
            self.doomed / total,
            self.protectable / total,
            self.immune / total,
        )


@dataclass
class PartitionResult:
    """Per-source categories for one attacker/destination pair."""

    attacker: int
    destination: int
    model: RankModel
    category_of: dict[int, Category]

    def counts(self) -> PartitionCounts:
        doomed = protectable = immune = disconnected = 0
        for category in self.category_of.values():
            if category is Category.DOOMED:
                doomed += 1
            elif category is Category.PROTECTABLE:
                protectable += 1
            elif category is Category.IMMUNE:
                immune += 1
            else:
                disconnected += 1
        return PartitionCounts(doomed, protectable, immune, disconnected)

    def members(self, category: Category) -> frozenset[int]:
        return frozenset(
            asn for asn, cat in self.category_of.items() if cat is category
        )


def compute_partitions(
    topology: ASGraph | RoutingContext,
    attacker: int,
    destination: int,
    model: RankModel,
    baseline_outcome: RoutingOutcome | None = None,
) -> PartitionResult:
    """Partition all sources for ``(m, d)`` under the given model.

    Args:
        topology: graph or prebuilt context.
        attacker: the attacking AS ``m``.
        destination: the victim AS ``d``.
        model: one of the three security models (the baseline model has
            no protectable ASes by definition and is rejected).
        baseline_outcome: optional precomputed ``S = ∅`` attack outcome
            for this pair (shared across models — with no secure AS all
            models coincide).

    Returns:
        A :class:`PartitionResult`; its ``category_of`` is the
        :func:`classify_partitions` array keyed by ASN.
    """
    ctx = topology if isinstance(topology, RoutingContext) else RoutingContext(topology)
    codes = classify_partitions(ctx, attacker, destination, model, baseline_outcome)
    asn_of = ctx.asns
    category_of = {
        asn_of[i]: CATEGORIES[code] for i, code in enumerate(codes) if code != ROOT
    }
    return PartitionResult(attacker, destination, model, category_of)


#: Category of each :func:`classify_partitions` code (the code is the
#: index); the attack's two roots get :data:`ROOT` instead.
CATEGORIES = (
    Category.DOOMED,
    Category.PROTECTABLE,
    Category.IMMUNE,
    Category.DISCONNECTED,
)
DOOMED, PROTECTABLE, IMMUNE, DISCONNECTED = range(len(CATEGORIES))
ROOT = len(CATEGORIES)

#: ``bytes.translate`` table: Reach (NONE, DEST, ATTACKER, BOTH) -> code.
_CODE_OF_REACH = bytes((DISCONNECTED, IMMUNE, DOOMED, PROTECTABLE)) + bytes(range(4, 256))
#: An attacked-closure member's code given its legitimate-closure code.
_ALSO_ATTACKED = bytes((DOOMED, PROTECTABLE, PROTECTABLE, DOOMED))


def classify_partitions(
    ctx: RoutingContext,
    attacker: int,
    destination: int,
    model: RankModel,
    baseline_outcome: RoutingOutcome | None = None,
) -> bytearray:
    """Per-AS-index partition codes for ``(m, d)`` under ``model``.

    Returns one byte per AS of ``ctx``: the index into
    :data:`CATEGORIES` of the AS's category, or :data:`ROOT` for the
    attacker and the destination.  Aggregates are ``bytearray.count``
    calls, so callers that only tally never build per-AS objects.
    ``baseline_outcome`` is as in :func:`compute_partitions` (unused by
    security 1st, which reads the perceivable closures instead).
    """
    if model.model is SecurityModel.BASELINE:
        raise ValueError("partitions are defined for the three security models")
    if model.model is SecurityModel.FIRST:
        dest_i = ctx.index_of[destination]
        att_i = ctx.index_of[attacker]
        codes = _codes_security_first(ctx, dest_i, att_i)
    else:
        outcome = baseline_outcome or compute_routing_outcome(
            ctx,
            destination,
            attacker=attacker,
            model=RankModel(SecurityModel.BASELINE, model.local_preference),
        )
        dest_i = outcome._dest_i
        att_i = outcome._att_i
        if model.model is SecurityModel.THIRD:
            codes = _codes_from_bpr_endpoints(outcome)
        else:
            codes = _codes_security_second(ctx, outcome)
    codes[dest_i] = ROOT
    if att_i >= 0:
        codes[att_i] = ROOT
    return codes


def _codes_from_bpr_endpoints(outcome: RoutingOutcome) -> bytearray:
    """Security 3rd: classify by the endpoints of the S=∅ BPR set.

    Translates the outcome's flat reach array (one byte per AS) in one
    call; only the rare unfixed ASes are then visited one by one.
    """
    codes = bytearray(outcome._reach.translate(_CODE_OF_REACH))
    fixed = outcome._fixed
    i = fixed.find(0)
    while i >= 0:
        codes[i] = DISCONNECTED
        i = fixed.find(0, i + 1)
    return codes


def _codes_security_second(ctx: RoutingContext, outcome: RoutingOutcome) -> bytearray:
    """Security 2nd: endpoints of surviving same-class routes (Cor. E.2).

    An AS stabilizes to a route of the same LP class as its ``S = ∅``
    best routes, but — because security outranks length inside the class
    — possibly via *any* neighbor still offering that class after the
    FixRoutes pruning.  The endpoints it can be steered to are therefore
    the union of its class-``C`` neighbors' own BPR endpoints.
    """
    n = ctx.n
    codes = bytearray((DISCONNECTED,)) * n
    neighbor_sets = (ctx.customers_idx, ctx.peers_idx, ctx.providers_idx)
    fixed = outcome._fixed
    cls = outcome._cls
    reach_arr = outcome._reach
    dest_i = outcome._dest_i
    att_i = outcome._att_i
    code_of = _CODE_OF_REACH
    customer_cls = int(RouteClass.CUSTOMER)
    provider_cls = int(RouteClass.PROVIDER)
    for i in range(n):
        if not fixed[i] or i == dest_i or i == att_i:
            continue
        route_class = cls[i]
        from_provider = route_class == provider_cls
        reach = 0
        for nbr in neighbor_sets[route_class][i]:
            if nbr == dest_i:
                reach |= 1
                continue
            if nbr == att_i:
                reach |= 2
                continue
            if not fixed[nbr]:
                continue
            # Ex: the neighbor offers its fixed route to ``asn`` only if
            # it is a customer route or ``asn`` is its customer.
            if cls[nbr] != customer_cls and not from_provider:
                continue
            reach |= reach_arr[nbr]
            if reach == 3:
                break
        # reach == 0 would mean a fixed AS whose every neighbor
        # withholds, which monotone fixing rules out (maps DISCONNECTED).
        codes[i] = code_of[reach]
    return codes


def _codes_security_first(ctx: RoutingContext, dest_i: int, att_i: int) -> bytearray:
    """Security 1st: Observations E.3/E.4; nearly everything is protectable.

    Immune iff only a legitimate route is perceivable, doomed iff only
    an attacked one is, protectable iff both are.
    """
    codes = bytearray((DISCONNECTED,)) * ctx.n
    for members in closure_indices(ctx, dest_i, att_i):
        for i in members:
            codes[i] = IMMUNE
    also_attacked = _ALSO_ATTACKED
    for members in closure_indices(ctx, att_i, dest_i):
        for i in members:
            codes[i] = also_attacked[codes[i]]
    return codes
