"""Oracle property test for the batched ego extractor.

``repro.graph.sampling.extract_egos`` serves every center of a batch in
one labelled k-hop pass and one canonical-order argsort.  Both public
entry points — static :func:`~repro.graph.ego_subgraphs` and
:meth:`DynamicGraph.ego_subgraphs` — must return exactly what
extracting each center on its own returns
(:func:`helpers.reference_ego_subgraphs`): same node arrays, center
positions, edge arrays in the same order, same dtypes and node ids.

Cases are random live-graph histories: tombstoned base edges, overlay
edges added and retired, shop slots beyond the base, interleaved
compactions, duplicate centers and hops 0–3; plus static graphs with
``node_ids``.
"""

import numpy as np
import pytest

from repro.graph import ESellerGraph, ego_subgraph, ego_subgraphs, k_hop_nodes
from repro.streaming import DynamicGraph, EdgeAdded, EdgeRetired, ShopAdded

from helpers import (
    assert_egos_identical,
    forall,
    live_static_graph,
    random_eseller_graph,
    reference_ego_subgraphs,
    reference_k_hop,
)

pytestmark = pytest.mark.streaming

TRIALS = 120


def random_history(rng, base):
    """Events valid against ``base``: adds, LIFO retires of base and
    overlay edges, and shop arrivals (sometimes skipping slots)."""
    live = list(zip(base.src.tolist(), base.dst.tolist(),
                    base.edge_types.tolist()))
    num_nodes = base.num_nodes
    events = []
    for _ in range(int(rng.integers(0, 30))):
        kind = rng.random()
        if kind < 0.15:
            num_nodes += int(rng.integers(1, 3))
            events.append(ShopAdded(month=0, shop_index=num_nodes - 1))
        elif kind < 0.5 and live:
            # Prefer recent keys so overlay edges get retired too.
            pick = len(live) - 1 - min(int(rng.geometric(0.4)) - 1,
                                       len(live) - 1)
            src, dst, etype = live.pop(pick)
            events.append(EdgeRetired(month=0, src=src, dst=dst,
                                      edge_type=etype))
        else:
            key = (int(rng.integers(0, num_nodes)),
                   int(rng.integers(0, num_nodes)), int(rng.integers(0, 3)))
            live.append(key)
            events.append(EdgeAdded(month=0, src=key[0], dst=key[1],
                                    edge_type=key[2]))
    return events


def gen_case(rng):
    base = random_eseller_graph(rng, max_nodes=14, max_edges=30)
    if rng.random() < 0.3:
        ids = [f"shop-{v}" for v in range(base.num_nodes)]
        base = ESellerGraph(base.num_nodes, base.src, base.dst,
                            base.edge_types, ids)
        events = None                       # a static graph
    else:
        events = random_history(rng, base)
    threshold = None if rng.random() < 0.6 else 0.3
    centers = rng.integers(0, base.num_nodes + 4,
                           size=int(rng.integers(1, 7))).tolist()
    if rng.random() < 0.5:
        centers.append(centers[0])          # duplicate center
    return base, events, threshold, centers, int(rng.integers(0, 4))


def build(case):
    base, events, threshold, _, _ = case
    if events is None:
        return base
    dyn = DynamicGraph(base, compact_threshold=threshold, min_compact_edges=6)
    for event in events:
        try:
            dyn.apply(event)
        except LookupError:
            pass        # a shrink dropped the add this retire needed
    return dyn


def shrink_case(case):
    base, events, threshold, centers, hops = case
    if events:
        yield base, events[: len(events) // 2], threshold, centers, hops
        for drop in range(min(len(events), 6)):
            yield (base, events[:drop] + events[drop + 1:], threshold,
                   centers, hops)
    if len(centers) > 1:
        yield base, events, threshold, centers[:1], hops
    if hops:
        yield base, events, threshold, centers, hops - 1


def extract(graph, centers, hops):
    if isinstance(graph, DynamicGraph):
        return graph.ego_subgraphs(centers, hops)
    return ego_subgraphs(graph, centers, hops)


def check_batched_equals_per_center(case):
    _, _, _, centers, hops = case
    graph = build(case)
    in_range = [c for c in centers if c < graph.num_nodes]
    if len(in_range) < len(centers):
        with pytest.raises(IndexError):
            extract(graph, centers, hops)
    assert_egos_identical(extract(graph, in_range, hops),
                          reference_ego_subgraphs(graph, in_range, hops))


class TestBatchedExtractorOracle:
    def test_batched_equals_per_center_bitwise(self):
        forall(gen_case, check_batched_equals_per_center, trials=TRIALS,
               seed=31, shrink=shrink_case,
               name="batched ego extraction == per-center reference")

    def test_k_hop_union_equals_reference(self):
        def prop(case):
            _, _, _, centers, hops = case
            graph = build(case)
            seeds = [c for c in centers if c < graph.num_nodes]
            static = graph if isinstance(graph, ESellerGraph) \
                else live_static_graph(graph)
            assert np.array_equal(graph.k_hop_nodes(seeds, hops)
                                  if isinstance(graph, DynamicGraph)
                                  else k_hop_nodes(graph, seeds, hops),
                                  reference_k_hop(static, seeds, hops))

        forall(gen_case, prop, trials=TRIALS // 2, seed=32,
               shrink=shrink_case, name="k_hop_nodes == reference BFS")

    def test_single_center_entry_points_match(self):
        base = ESellerGraph(4, [0, 1, 2], [1, 2, 3], [0, 1, 2],
                            ["a", "b", "c", "d"])
        sub, nodes, center_local = ego_subgraph(base, 2, hops=1)
        (ego,) = reference_ego_subgraphs(base, [2], 1)
        assert_egos_identical(ego_subgraphs(base, [2], 1), [ego])
        assert np.array_equal(nodes, ego.nodes) and center_local == 1
        assert sub.node_ids == ["b", "c", "d"]
        dyn = DynamicGraph(base, compact_threshold=None)
        dyn.add_shop(6)                     # arrival slots 4..6
        dyn.add_edge(6, 2, 1)
        dyn.retire_edge(1, 2, 1)
        assert_egos_identical([dyn.ego_subgraph(6, 2)],
                              reference_ego_subgraphs(dyn, [6], 2))
        assert dyn.ego_subgraph(6, 2).nodes.tolist() == [2, 3, 6]

    def test_out_of_range_and_empty(self):
        base = ESellerGraph(3, [0], [1], [0])
        for bad in ([3], [-1], [0, 5]):
            with pytest.raises(IndexError):
                ego_subgraphs(base, bad, 1)
            with pytest.raises(IndexError):
                DynamicGraph(base).ego_subgraphs(bad, 1)
        with pytest.raises(IndexError):
            ego_subgraph(base, 3)
        with pytest.raises(ValueError):
            ego_subgraphs(base, [0], -1)
        assert ego_subgraphs(base, [], 2) == []
        assert k_hop_nodes(base, [], 2).size == 0
