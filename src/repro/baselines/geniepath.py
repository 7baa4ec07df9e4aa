"""GeniePath baseline (Liu et al., AAAI 2019).

Adaptive receptive paths: each layer has a *breadth* function (GAT-style
attention over neighbors, tanh-activated) and a *depth* function (an
LSTM cell that gates how much of the new neighborhood information enters
the running state).  Implemented per the paper's "GeniePath" (not the
lazy variant): h is the LSTM hidden state threaded through layers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.dataset import InstanceBatch
from ..graph.graph import ESellerGraph
from ..nn import functional as F
from ..nn.layers import LSTMCell, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor
from .common import BaselineConfig, FlatInput, VectorHead
from .gat import GATLayer

__all__ = ["GeniePath"]


class _BreadthFunction(Module):
    """GAT-style neighbor attention followed by tanh (GeniePath Eq. 1)."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.gat = GATLayer(dim, dim, num_heads, rng)

    def forward(self, h: Tensor, graph: ESellerGraph) -> Tensor:
        """Compute the layer output (see class docstring)."""
        return F.tanh(self.gat(h, graph))


class GeniePath(Module):
    """GeniePath forecaster: breadth attention + depth LSTM gating."""

    name = "Geniepath"
    kind = "neural"

    def __init__(self, config: BaselineConfig,
                 rng: Optional[np.random.Generator] = None, seed: int = 0) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(seed)
        config.validate()
        self.config = config
        c = config.channels
        self.input = FlatInput(config, rng)
        self.breadth = [
            _BreadthFunction(c, config.num_heads, rng)
            for _ in range(config.num_layers)
        ]
        self.depth = [LSTMCell(c, c, rng) for _ in range(config.num_layers)]
        self.head = VectorHead(config, rng)

    def forward(self, batch: InstanceBatch, graph: ESellerGraph,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """Forecasts ``(S, T')``; only the ``rows`` rows when given (the
        head runs on them, everything before it on the whole graph)."""
        x = self.input(batch)
        num_nodes = x.shape[0]
        h = x
        state = self.depth[0].initial_state(num_nodes)
        for breadth, depth in zip(self.breadth, self.depth):
            tmp = breadth(h, graph)
            hidden, cell = depth(tmp, state)
            state = (hidden, cell)
            h = hidden
        return self.head(h, rows)
