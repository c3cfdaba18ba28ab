"""Tests for the doomed/protectable/immune partition framework."""

import random

import pytest

from repro.core import (
    BASELINE,
    LP2,
    Category,
    Deployment,
    RankModel,
    Reach,
    RoutingContext,
    SECURITY_FIRST,
    SECURITY_MODELS,
    SECURITY_SECOND,
    SECURITY_THIRD,
    SecurityModel,
    attack_closures,
    compute_partitions,
    compute_routing_outcome,
)
from repro.core.partitions import CATEGORIES, ROOT, classify_partitions
from repro.topology import (
    RouteClass,
    TopologyParams,
    generate_topology,
    graph_from_edges,
)


@pytest.fixture()
def attack_graph():
    #       1 (d)            666 (m) hangs off 3.
    #      /   \
    #     2     3
    #     |     |
    #     4     666
    return graph_from_edges(
        customer_provider=[(2, 1), (3, 1), (4, 2), (666, 3)]
    )


class TestBasics:
    def test_roots_excluded(self, attack_graph):
        parts = compute_partitions(attack_graph, 666, 1, SECURITY_THIRD)
        assert 1 not in parts.category_of
        assert 666 not in parts.category_of

    def test_baseline_model_rejected(self, attack_graph):
        with pytest.raises(ValueError):
            compute_partitions(attack_graph, 666, 1, BASELINE)

    def test_counts_and_fractions(self, attack_graph):
        parts = compute_partitions(attack_graph, 666, 1, SECURITY_THIRD)
        counts = parts.counts()
        assert counts.total == 3
        doomed, protectable, immune = counts.fractions()
        assert doomed + protectable + immune == pytest.approx(1.0)

    def test_members_lookup(self, attack_graph):
        parts = compute_partitions(attack_graph, 666, 1, SECURITY_THIRD)
        for category in Category:
            for asn in parts.members(category):
                assert parts.category_of[asn] is category


class TestSecurityThird:
    def test_lp_doomed_customer_bogus(self, attack_graph):
        # 3 prefers the bogus customer route over its provider route to
        # d for every S: doomed.
        parts = compute_partitions(attack_graph, 666, 1, SECURITY_THIRD)
        assert parts.category_of[3] is Category.DOOMED

    def test_immune_other_branch(self, attack_graph):
        parts = compute_partitions(attack_graph, 666, 1, SECURITY_THIRD)
        assert parts.category_of[2] is Category.IMMUNE
        assert parts.category_of[4] is Category.IMMUNE

    def test_protectable_on_tie(self):
        # 5 has equal (class, length) routes to both endpoints.
        graph = graph_from_edges(
            customer_provider=[(5, 2), (5, 3), (1, 7), (7, 2), (666, 3)]
        )
        parts = compute_partitions(graph, 666, 1, SECURITY_THIRD)
        assert parts.category_of[5] is Category.PROTECTABLE

    def test_doom_propagates_through_pruning(self):
        # 4's only provider 3 is doomed, so 4 is doomed even though a
        # legitimate route exists in the static graph.
        graph = graph_from_edges(
            customer_provider=[(3, 1), (666, 3), (4, 3)]
        )
        parts = compute_partitions(graph, 666, 1, SECURITY_THIRD)
        assert parts.category_of[3] is Category.DOOMED
        assert parts.category_of[4] is Category.DOOMED


class TestSecuritySecond:
    def test_length_tie_becomes_protectable(self):
        # sec 3rd dooms 5 on length; sec 2nd lets a secure longer
        # same-class route save it.
        graph = graph_from_edges(
            customer_provider=[(5, 2), (5, 3), (1, 7), (7, 2), (666, 3), (8, 2), (1, 8)]
        )
        # 5 via 3: bogus provider len 3; via 2: legit provider len 3;
        # also via 2 there is a second legit (2 hears from 8? no - 8 is
        # a customer of 2 with customer route to 1).
        parts = compute_partitions(graph, 666, 1, SECURITY_SECOND)
        assert parts.category_of[5] is Category.PROTECTABLE

    def test_longer_same_class_route_rescues(self):
        # 5's best route is a 3-hop bogus provider route via 3; via 2 it
        # has a *longer* (4-hop) legitimate provider route. Security 2nd
        # can rescue it (secure beats short within the class) ->
        # protectable, NOT doomed; security 3rd dooms it (length wins).
        graph = graph_from_edges(
            customer_provider=[(5, 2), (5, 3), (666, 3), (1, 8), (8, 7), (7, 2)]
        )
        sec2 = compute_partitions(graph, 666, 1, SECURITY_SECOND)
        sec3 = compute_partitions(graph, 666, 1, SECURITY_THIRD)
        assert sec3.category_of[5] is Category.DOOMED
        assert sec2.category_of[5] is Category.PROTECTABLE

    def test_class_dominance_still_dooms(self, attack_graph):
        # 3's bogus route is customer-class; no same-class legitimate
        # alternative exists: doomed in security 2nd too.
        parts = compute_partitions(attack_graph, 666, 1, SECURITY_SECOND)
        assert parts.category_of[3] is Category.DOOMED


class TestSecurityFirst:
    def test_almost_everything_protectable(self, attack_graph):
        parts = compute_partitions(attack_graph, 666, 1, SECURITY_FIRST)
        # 3 could go either way depending on S; 2 and 4 can never even
        # hear the bogus route (it only propagates up from 3), so they
        # are genuinely immune per Observation E.4.
        assert parts.category_of[3] is Category.PROTECTABLE
        assert parts.category_of[2] is Category.IMMUNE
        assert parts.category_of[4] is Category.IMMUNE

    def test_single_homed_stub_of_destination_immune(self):
        graph = graph_from_edges(
            customer_provider=[(9, 1), (3, 1), (666, 3)]
        )
        parts = compute_partitions(graph, 666, 1, SECURITY_FIRST)
        # 9 hangs off d only: no perceivable attacked route avoids d.
        assert parts.category_of[9] is Category.IMMUNE

    def test_single_homed_stub_of_attacker_doomed(self):
        graph = graph_from_edges(
            customer_provider=[(3, 1), (666, 3), (9, 666)]
        )
        parts = compute_partitions(graph, 666, 1, SECURITY_FIRST)
        assert parts.category_of[9] is Category.DOOMED


class TestInvariantAgainstDeployments:
    """The partition promises: immune ASes are happy for *every* S and
    doomed ASes for none (checked on random deployments)."""

    @pytest.mark.parametrize("model", SECURITY_MODELS, ids=lambda m: m.label)
    def test_partitions_sound_on_small_graph(self, small_ctx, model):
        rnd = random.Random(4)
        asns = small_ctx.asns
        destination = asns[10]
        attacker = asns[-10]
        parts = compute_partitions(small_ctx, attacker, destination, model)
        immune = parts.members(Category.IMMUNE)
        doomed = parts.members(Category.DOOMED)
        for _ in range(6):
            deployment = Deployment.of(rnd.sample(asns, rnd.randint(0, len(asns))))
            out = compute_routing_outcome(
                small_ctx, destination, attacker, deployment, model
            )
            for asn in immune:
                assert out.happy_lower(asn), (model.label, asn)
            for asn in doomed:
                assert not out.happy_upper(asn), (model.label, asn)


# ----------------------------------------------------------------------
# Differential: the array classifier against a per-AS dict reference
# ----------------------------------------------------------------------

_LP_AND_LP2_MODELS = tuple(SECURITY_MODELS) + tuple(
    RankModel(model.model, LP2) for model in SECURITY_MODELS
)
_BUCKET = {
    Category.DOOMED: 0,
    Category.PROTECTABLE: 1,
    Category.IMMUNE: 2,
    Category.DISCONNECTED: 3,
}


def _reference_category_of(ctx, attacker, destination, model):
    """Per-AS dict classification, one ``Category`` per source ASN,
    written against the public outcome / closure APIs."""
    category_of = {}
    if model.model is SecurityModel.FIRST:
        closures = attack_closures(ctx, attacker, destination)
        legitimate = closures.legitimate.any()
        attacked = closures.attacked.any()
        for asn in ctx.asns:
            if asn in (attacker, destination):
                continue
            category_of[asn] = {
                (True, True): Category.PROTECTABLE,
                (True, False): Category.IMMUNE,
                (False, True): Category.DOOMED,
                (False, False): Category.DISCONNECTED,
            }[(asn in legitimate, asn in attacked)]
        return category_of
    baseline = compute_routing_outcome(
        ctx,
        destination,
        attacker=attacker,
        model=RankModel(SecurityModel.BASELINE, model.local_preference),
    )
    by_reach = {
        Reach.NONE: Category.DISCONNECTED,
        Reach.DEST: Category.IMMUNE,
        Reach.ATTACKER: Category.DOOMED,
        Reach.BOTH: Category.PROTECTABLE,
    }
    neighbors = {
        RouteClass.CUSTOMER: ctx.graph.customers,
        RouteClass.PEER: ctx.graph.peers,
        RouteClass.PROVIDER: ctx.graph.providers,
    }
    for asn in ctx.asns:
        if asn in (attacker, destination):
            continue
        if asn not in baseline.routes:
            category_of[asn] = Category.DISCONNECTED
            continue
        info = baseline.routes[asn]
        if model.model is SecurityModel.THIRD:
            category_of[asn] = by_reach[info.reaches]
            continue
        reach = 0
        for nbr in neighbors[info.route_class](asn):
            if nbr == destination:
                reach |= 1
            elif nbr == attacker:
                reach |= 2
            elif nbr in baseline.routes:
                offered = baseline.routes[nbr]
                if (
                    offered.route_class is RouteClass.CUSTOMER
                    or info.route_class is RouteClass.PROVIDER
                ):
                    reach |= offered.reaches
        category_of[asn] = by_reach[Reach(reach)]
    return category_of


class TestArrayClassifierDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_as_reference_on_random_topologies(self, seed):
        graph = generate_topology(TopologyParams(n=60, seed=seed)).graph
        ctx = RoutingContext(graph)
        rnd = random.Random(seed)
        for _ in range(3):
            destination, attacker = rnd.sample(graph.asns, 2)
            for model in _LP_AND_LP2_MODELS:
                expected = _reference_category_of(ctx, attacker, destination, model)
                codes = classify_partitions(ctx, attacker, destination, model)
                got = {
                    asn: CATEGORIES[code]
                    for asn, code in zip(ctx.asns, codes)
                    if code != ROOT
                }
                assert got == expected, (seed, model.label)
                for category in CATEGORIES:
                    assert codes.count(CATEGORIES.index(category)) == sum(
                        1 for c in expected.values() if c is category
                    )
                assert compute_partitions(
                    ctx, attacker, destination, model
                ).category_of == expected

    @pytest.mark.parametrize("seed", (5, 6))
    def test_sweep_tallies_match_reference(self, seed):
        from repro.experiments import make_context
        from repro.experiments.sweeps import _pair_partition_worker

        ectx = make_context(scale="tiny", seed=seed)
        ctx = ectx.graph_ctx
        tier_of = ectx.tiers.tier_of
        rnd = random.Random(seed)
        for lp_models in (SECURITY_MODELS, _LP_AND_LP2_MODELS[3:]):
            for _ in range(3):
                attacker, destination = rnd.sample(ctx.asns, 2)
                _, _, _, counts, tier_counts = _pair_partition_worker(
                    ectx, (attacker, destination), {"models": tuple(lp_models)}
                )
                expected_counts = {}
                expected_tiers = {}
                for model in lp_models:
                    bucket = expected_counts.setdefault(model.label, [0, 0, 0, 0])
                    reference = _reference_category_of(ctx, attacker, destination, model)
                    for asn, category in reference.items():
                        bucket[_BUCKET[category]] += 1
                        expected_tiers.setdefault(
                            (model.label, tier_of[asn]), [0, 0, 0, 0]
                        )[_BUCKET[category]] += 1
                assert counts == expected_counts
                assert tier_counts == expected_tiers
