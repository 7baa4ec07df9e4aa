"""Ego-subgraph extraction and neighbor sampling.

The deployed Gaia system (paper §VI) predicts a newcoming e-seller from
the *ego-subgraph* extracted around it.  :func:`extract_egos` is the one
extractor: it serves every center of a serving micro-batch in a single
vectorised pass, over a static graph (:func:`ego_subgraphs`,
:func:`ego_subgraph`) or a live one (base + tombstones + overlay, used
by :class:`~repro.streaming.dynamic_graph.DynamicGraph`).
:func:`sample_neighbors` provides GraphSAGE-style fanout capping for
minibatch training on larger graphs.  :func:`receptive_field` finds,
for a set of output rows, the rows each message-passing layer must
compute (GraphSAGE's layer-wise minibatch sets), so a forward that reads
a few rows computes only their receptive field.

The ego extractor's frontier expansions run on the graph's incidence index
(:meth:`~repro.graph.graph.ESellerGraph.incidence`), so each BFS hop touches
only the edges incident to the current frontier instead of rescanning
the full edge list, and no step allocates per-node state for the whole
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph import ESellerGraph

__all__ = [
    "k_hop_nodes",
    "extract_egos",
    "ego_subgraph",
    "ego_subgraphs",
    "EgoSubgraph",
    "sample_neighbors",
    "LayerBlock",
    "ReceptiveField",
    "receptive_field",
]


def _segments(lo: np.ndarray, hi: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the ranges ``lo[i]:hi[i]`` over every ``i``, vectorised.

    Returns the positions and each range's length.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), counts
    seg_offsets = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) + np.repeat(lo - seg_offsets,
                                                         counts), counts


def _gather_segments(
    indptr: np.ndarray, order: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Concatenate ``order[indptr[v]:indptr[v+1]]`` for every ``v`` in ``nodes``.

    Fully vectorised CSR multi-row gather: the returned array lists the
    edge indices incident to each node, nodes in the given order.
    """
    return order[_segments(indptr[nodes], indptr[nodes + 1])[0]]


class _Plane:
    """One edge plane of the extractor: a graph and its incidence index.

    Edge ``i`` of the plane has global id ``offset + i``, which fixes
    the canonical order of induced edges across planes.  Nodes past the
    plane's graph (arrival slots past the base) have no edges in it.
    ``alive`` (or ``None`` for all-live) masks tombstoned edges.
    """

    __slots__ = ("types", "alive", "offset", "last", "starts", "out_ends",
                 "ends", "edges", "others")

    def __init__(self, graph: ESellerGraph, offset: int,
                 alive: Optional[np.ndarray] = None) -> None:
        self.types = graph.edge_types
        self.offset = offset
        self.alive = alive
        self.last = graph.num_nodes
        (self.starts, self.out_ends, self.ends, self.edges,
         self.others) = graph.incidence()

    def incident(self, nodes: np.ndarray, carry: np.ndarray,
                 outgoing_only: bool
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live edges at ``nodes`` (both directions, or only leaving
        them): edge ids, other endpoints, and each edge's copy of its
        node's ``carry`` value."""
        slot = np.minimum(nodes, self.last)
        picks, counts = _segments(
            self.starts[slot],
            (self.out_ends if outgoing_only else self.ends)[slot])
        if not picks.size:
            return picks, picks, picks
        edges, others = self.edges[picks], self.others[picks]
        carry = np.repeat(carry, counts)
        if self.alive is not None:
            live = self.alive[edges]
            edges, others, carry = edges[live], others[live], carry[live]
        return edges, others, carry


def _planes(graph: ESellerGraph, alive: Optional[np.ndarray] = None,
            overlay: Optional[ESellerGraph] = None) -> List[_Plane]:
    """Base plane (optional liveness) plus an optional overlay graph of
    live edges in addition order, numbered after the base."""
    planes = []
    if graph.num_edges:
        planes.append(_Plane(graph, 0, alive))
    if overlay is not None and overlay.num_edges:
        planes.append(_Plane(overlay, graph.num_edges))
    return planes


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` that passes a lone part through."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """``np.isin(keys, sorted_keys)`` by binary search (``sorted_keys``
    sorted and unique)."""
    if sorted_keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def _labelled_k_hop(planes: List[_Plane], num_nodes: int,
                    seed_keys: np.ndarray, hops: int) -> np.ndarray:
    """One k-hop expansion for many labelled seed sets at once.

    ``seed_keys`` are the sorted unique keys ``label * num_nodes + node``
    of the seeds.  Returns the sorted unique keys of every node within
    ``hops`` undirected hops of a seed carrying the same label (labels
    expand independently).  Work per hop is proportional to the
    frontier's incident edges, never to the graph.
    """
    visited = frontier = seed_keys
    for hop in range(hops):
        if frontier.size == 0 or not planes:
            break
        f_labels, f_nodes = np.divmod(frontier, num_nodes)
        found = []
        for plane in planes:
            _, others, lab = plane.incident(f_nodes, f_labels, False)
            if others.size:
                found.append(lab * num_nodes + others)
        found = _concat(found)
        if hop == hops - 1:
            return np.union1d(visited, found)
        found = np.unique(found)
        frontier = found[~_member(found, visited)]
        visited = np.sort(np.concatenate((visited, frontier)))
    return visited


def _check_seeds(seeds: np.ndarray, num_nodes: int, what: str) -> None:
    if seeds.size and not (0 <= seeds.min() and seeds.max() < num_nodes):
        raise IndexError(
            f"{what} out of range for {num_nodes} nodes: "
            f"min={seeds.min()}, max={seeds.max()}"
        )


def k_hop_nodes(
    graph: ESellerGraph,
    seeds: Sequence[int],
    hops: int,
    num_nodes: Optional[int] = None,
    alive: Optional[np.ndarray] = None,
    overlay: Optional[ESellerGraph] = None,
) -> np.ndarray:
    """Return nodes within ``hops`` (undirected) hops of ``seeds``.

    The frontier expands over both in- and out-edges because supply-chain
    influence in the paper flows both ways through aggregation.  With
    several seeds the result is the union of the per-seed neighborhoods —
    the multi-seed form the serving gateway's batched extraction relies
    on.  Each hop gathers only the frontier's incident edges from the
    incidence index (O(frontier edges) per hop, not O(E)).  ``num_nodes`` /
    ``alive`` / ``overlay`` describe a live graph over ``graph`` as in
    :func:`extract_egos`.
    """
    if hops < 0:
        raise ValueError(f"hops must be non-negative, got {hops}")
    n = graph.num_nodes if num_nodes is None else int(num_nodes)
    seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
    _check_seeds(seeds, n, "seeds")
    return _labelled_k_hop(_planes(graph, alive, overlay), n,
                           np.unique(seeds), hops)


@dataclass
class EgoSubgraph:
    """One extracted ego-subgraph, ready for (batched) serving.

    ``nodes`` are the original node indices (sorted); ``center_local`` is
    the seed's position within them; ``subgraph`` is the induced graph
    with nodes relabelled ``0..len(nodes)-1`` in that order.
    """

    center: int
    subgraph: ESellerGraph
    nodes: np.ndarray
    center_local: int

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the ego-subgraph."""
        return self.subgraph.num_nodes


def extract_egos(
    graph: ESellerGraph,
    centers: Sequence[int],
    hops: int = 2,
    num_nodes: Optional[int] = None,
    alive: Optional[np.ndarray] = None,
    overlay: Optional[ESellerGraph] = None,
    node_ids: Optional[Sequence[str]] = None,
) -> List[EgoSubgraph]:
    """The one ego extractor: every center of a batch in one pass.

    ``graph`` is the (base) edge list with its incidence index.  A live
    graph over it passes ``num_nodes`` (its node space may extend past
    the base), the base's ``alive`` mask (``False`` = tombstoned) and an
    ``overlay`` graph of live added edges in addition order;
    ``node_ids`` labels the subgraphs' nodes.

    One labelled k-hop pass (label = the center's batch position, so
    duplicate centers expand independently) finds every ego's nodes;
    each ego's induced edges are its nodes' out-edges whose other end is
    in the same ego, put into canonical order — base edges in base
    order, then overlay edges in addition order — by one argsort over
    the whole batch and split per center.  The result equals extracting
    each center on its own from the equivalent static graph: same
    ``nodes``, ``center_local`` and edge arrays in the same order.
    """
    if hops < 0:
        raise ValueError(f"hops must be non-negative, got {hops}")
    n = graph.num_nodes if num_nodes is None else int(num_nodes)
    centers = np.asarray(centers, dtype=np.int64).reshape(-1)
    _check_seeds(centers, n, "centers")
    m = centers.size
    if m == 0:
        return []
    planes = _planes(graph, alive, overlay)
    center_keys = np.arange(m, dtype=np.int64) * n + centers
    keys = _labelled_k_hop(planes, n, center_keys, hops)
    labels, nodes = np.divmod(keys, n)
    node_counts = np.bincount(labels, minlength=m)
    node_starts = np.cumsum(node_counts) - node_counts
    # Induced edges: each node's out-edges whose destination shares the
    # node's label, ordered canonically by (label, global edge id).
    span = planes[-1].offset + planes[-1].types.size if planes else 1
    e_key, e_src, e_dst, e_type = [], [], [], []
    at = np.arange(keys.size, dtype=np.int64)
    for plane in planes:
        eids, others, src_at = plane.incident(nodes, at, True)
        if not eids.size:
            continue
        lab = labels[src_at]
        dst_keys = lab * n + others
        dst_at = np.searchsorted(keys, dst_keys)
        inside = keys[np.minimum(dst_at, keys.size - 1)] == dst_keys
        eids = eids[inside]
        e_key.append(lab[inside] * span + (eids + plane.offset))
        e_src.append(src_at[inside])
        e_dst.append(dst_at[inside])
        e_type.append(plane.types[eids])
    e_key = _concat(e_key)
    order = np.argsort(e_key)
    e_lab = e_key[order] // span
    starts = node_starts[e_lab]
    e_src = _concat(e_src)[order] - starts
    e_dst = _concat(e_dst)[order] - starts
    e_type = _concat(e_type)[order]
    edge_counts = np.bincount(e_lab, minlength=m)
    node_bounds = np.cumsum(node_counts).tolist()
    edge_bounds = np.cumsum(edge_counts).tolist()
    center_local = (np.searchsorted(keys, center_keys)
                    - node_starts).tolist()
    egos: List[EgoSubgraph] = []
    n_lo = e_lo = 0
    for i, center in enumerate(centers.tolist()):
        n_hi, e_hi = node_bounds[i], edge_bounds[i]
        ego_nodes = nodes[n_lo:n_hi]
        ids = None if node_ids is None else [node_ids[v] for v in ego_nodes]
        sub = ESellerGraph(n_hi - n_lo, e_src[e_lo:e_hi], e_dst[e_lo:e_hi],
                           e_type[e_lo:e_hi], ids, check_range=False)
        egos.append(EgoSubgraph(center=center, subgraph=sub, nodes=ego_nodes,
                                center_local=center_local[i]))
        n_lo, e_lo = n_hi, e_hi
    return egos


def ego_subgraph(
    graph: ESellerGraph, center: int, hops: int = 2
) -> Tuple[ESellerGraph, np.ndarray, int]:
    """Extract the ``hops``-hop ego-subgraph around ``center``.

    Returns ``(subgraph, original_node_indices, center_local_index)``.
    The center is always the node whose prediction the online server
    computes (paper Fig. 5).
    """
    ego = ego_subgraphs(graph, [center], hops)[0]
    return ego.subgraph, ego.nodes, ego.center_local


def ego_subgraphs(
    graph: ESellerGraph, centers: Sequence[int], hops: int = 2
) -> List[EgoSubgraph]:
    """Batched multi-seed ego-subgraph extraction.

    Extracts one :class:`EgoSubgraph` per center in a single
    :func:`extract_egos` pass over the graph's incidence index.  Each ego
    equals the corresponding single-seed :func:`ego_subgraph` exactly,
    so a serving layer can stitch the results into one node-disjoint
    batch and still reproduce per-request forwards bit-for-bit.
    """
    return extract_egos(graph, centers, hops, node_ids=graph.node_ids)


def sample_neighbors(
    graph: ESellerGraph,
    nodes: Sequence[int],
    fanout: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample up to ``fanout`` incoming edges per node.

    Returns ``(src, dst, edge_types)`` arrays of the sampled edges.  When
    a node has fewer than ``fanout`` in-edges, all are kept (sampling
    without replacement).  The per-node reservoir runs vectorised: every
    candidate edge draws a random key and each node keeps its ``fanout``
    smallest keys, so no Python-level loop over nodes remains.
    """
    if fanout <= 0:
        raise ValueError(f"fanout must be positive, got {fanout}")
    nodes = np.asarray(nodes, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    if nodes.size == 0 or graph.num_edges == 0:
        return empty, empty.copy(), empty.copy()
    indptr, order = graph.in_csr()
    picks, counts = _segments(indptr[nodes], indptr[nodes + 1])
    edges = order[picks]
    if edges.size == 0:
        return empty, empty.copy(), empty.copy()
    segments = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    keys = rng.random(edges.size)
    perm = np.lexsort((keys, segments))
    seg_offsets = np.cumsum(counts) - counts
    rank = np.arange(edges.size, dtype=np.int64) - seg_offsets[segments]
    keep = edges[perm][rank < fanout]
    return graph.src[keep], graph.dst[keep], graph.edge_types[keep]


@dataclass(frozen=True)
class LayerBlock:
    """One message-passing layer's share of a :class:`ReceptiveField`.

    The layer reads ``num_in`` input rows and writes the first
    ``num_out`` of them (``num_out <= num_in``; rows are in the field's
    layout order, where every layer's output rows lead its input rows).
    ``edges`` are the original ids, ascending, of the edges into the
    output rows (``None`` for a :meth:`whole` block: every edge, in
    order); ``src`` (``< num_in``) and ``dst`` (``< num_out``) are
    their endpoints as row positions.
    """

    num_in: int
    num_out: int
    edges: Optional[np.ndarray]
    src: np.ndarray
    dst: np.ndarray

    @classmethod
    def whole(cls, graph: ESellerGraph) -> "LayerBlock":
        """The unpruned layer: every node in and out, every edge."""
        return cls(graph.num_nodes, graph.num_nodes, None, graph.src,
                   graph.dst)

    def check_input(self, rows: int) -> None:
        """Raise unless a layer input has this block's ``num_in`` rows."""
        if rows != self.num_in:
            raise ValueError(
                f"representation rows ({rows}) != layer input rows "
                f"({self.num_in})"
            )


@dataclass(frozen=True)
class ReceptiveField:
    """The rows an ``L``-layer forward needs for a set of output rows.

    ``nodes`` lists the input rows ``N_0`` (original node ids) in layout
    order: the requested rows first (duplicates dropped, first
    occurrence kept), then each hop's newly reached in-neighbors in
    ascending id order.  Every needed set ``N_l`` is a prefix of
    ``nodes``, and ``blocks[l]`` maps layer ``l``'s input prefix to its
    output prefix.  ``row_index`` places each requested row in the
    final prefix, or is ``None`` when the rows were distinct (the
    prefix is then the rows, in the order given).
    """

    nodes: np.ndarray
    blocks: List[LayerBlock]
    row_index: Optional[np.ndarray]


def receptive_field(graph: ESellerGraph, rows: Sequence[int],
                    num_layers: int) -> ReceptiveField:
    """Needed sets ``N_0 ⊇ N_1 ⊇ … ⊇ N_L = rows`` of an ``L``-layer forward.

    A layer's output at node ``u`` reads its input at ``u`` and at every
    in-neighbor of ``u``, so ``N_{l-1} = N_l ∪ in(N_l)``.  Each layer
    costs one vectorised pass over the edge list (keep the edges whose
    destination is needed, mark their sources), which is never more
    than the full-graph layer it prunes does.  Kept edges stay in edge
    order: a layer's per-node softmax and sum then see each node's
    in-edges in the order a full-graph forward does.
    """
    if num_layers < 0:
        raise ValueError(f"num_layers must be non-negative, got {num_layers}")
    rows = np.asarray(rows)
    if rows.dtype == bool:
        raise TypeError("rows must be node indices, not a boolean mask")
    rows = rows.astype(np.int64).reshape(-1)
    if rows.size == 0:
        raise ValueError("rows must name at least one node")
    _check_seeds(rows, graph.num_nodes, "rows")
    needed = np.zeros(graph.num_nodes, dtype=bool)
    needed[rows] = True
    count = int(np.count_nonzero(needed))
    distinct = count == rows.size
    if distinct:
        nodes = rows
    else:
        nodes = rows[np.sort(np.unique(rows, return_index=True)[1])]
    position = np.empty(graph.num_nodes, dtype=np.int64)
    position[nodes] = np.arange(count)
    parts, sizes, edge_sets = [nodes], [count], []
    for _ in range(num_layers):
        edges = np.flatnonzero(needed[graph.dst])
        edge_sets.append(edges)
        reached = needed.copy()
        reached[graph.src[edges]] = True
        fresh = np.flatnonzero(reached & ~needed)
        position[fresh] = np.arange(sizes[-1], sizes[-1] + fresh.size)
        parts.append(fresh)
        sizes.append(sizes[-1] + fresh.size)
        needed = reached
    blocks = [
        LayerBlock(num_in=sizes[hop + 1], num_out=sizes[hop], edges=kept,
                   src=position[graph.src[kept]],
                   dst=position[graph.dst[kept]])
        for hop, kept in reversed(list(enumerate(edge_sets)))
    ]
    return ReceptiveField(nodes=_concat(parts), blocks=blocks,
                          row_index=None if distinct else position[rows])
