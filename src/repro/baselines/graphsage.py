"""GraphSAGE baseline (Hamilton et al., NeurIPS 2017).

Mean-aggregator variant: each layer concatenates a node's own vector
with the mean of its in-neighbors' vectors and applies a shared linear
map.  Like GAT, it is structure-only — the series is a flat feature.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.dataset import InstanceBatch
from ..graph.graph import ESellerGraph
from ..nn import functional as F
from ..nn.layers import Linear
from ..nn.module import Module
from ..nn.tensor import Tensor
from .common import BaselineConfig, FlatInput, VectorHead

__all__ = ["SAGELayer", "GraphSAGE"]


class SAGELayer(Module):
    """Mean-aggregator GraphSAGE layer over ``(S, C)`` node vectors."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.fc = Linear(2 * in_dim, out_dim, rng)

    def forward(self, h: Tensor, graph: ESellerGraph) -> Tensor:
        """Compute the layer output (see class docstring)."""
        num_nodes = h.shape[0]
        if graph.num_edges:
            summed = F.segment_sum(F.gather_rows(h, graph.src), graph.dst, num_nodes)
            degree = np.zeros(num_nodes)
            np.add.at(degree, graph.dst, 1.0)
            inv = 1.0 / np.maximum(degree, 1.0)
            neighbor_mean = summed * Tensor(inv[:, None])
        else:
            neighbor_mean = Tensor(np.zeros(h.shape))
        return self.fc(F.concat([h, neighbor_mean], axis=-1))


class GraphSAGE(Module):
    """Two-layer mean-aggregator GraphSAGE forecaster."""

    name = "GraphSage"
    kind = "neural"

    def __init__(self, config: BaselineConfig,
                 rng: Optional[np.random.Generator] = None, seed: int = 0) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(seed)
        config.validate()
        self.config = config
        self.input = FlatInput(config, rng)
        c = config.channels
        self.layers = [SAGELayer(c, c, rng) for _ in range(config.num_layers)]
        self.head = VectorHead(config, rng)

    def forward(self, batch: InstanceBatch, graph: ESellerGraph,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """Forecasts ``(S, T')``; only the ``rows`` rows when given (the
        head runs on them, everything before it on the whole graph)."""
        h = self.input(batch)
        for i, layer in enumerate(self.layers):
            h = layer(h, graph)
            if i + 1 < len(self.layers):
                h = F.relu(h)
        return self.head(h, rows)
