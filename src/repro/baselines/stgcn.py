"""STGCN baseline (Yu et al., IJCAI 2018).

Spatio-temporal graph convolution in the original sandwich arrangement:
each ST-Conv block is [gated temporal convolution (GLU) → spatial graph
convolution on the normalised adjacency → gated temporal convolution].
Temporal convolutions are causal here (the original uses valid padding
and shrinks the window; causal padding keeps the ``T``-long axis that
our shared forecast head expects, without introducing leakage).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.dataset import InstanceBatch
from ..graph.graph import ESellerGraph
from ..nn import functional as F
from ..nn.layers import Conv1d, LayerNorm, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor
from .common import BaselineConfig, ForecastHead, SequenceInput

__all__ = ["STConvBlock", "STGCN"]


class _GatedTemporalConv(Module):
    """Causal temporal convolution with a GLU gate (STGCN's TC layer)."""

    def __init__(self, channels: int, width: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.conv = Conv1d(channels, 2 * channels, width=width, rng=rng,
                           padding="causal")

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        return F.glu(self.conv(x), axis=-1)


class _SpatialGraphConv(Module):
    """First-order graph convolution ``A_hat X W`` over the node axis."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.fc = Linear(channels, channels, rng)

    def forward(self, x: Tensor, adj_norm: np.ndarray) -> Tensor:
        # adj (S, S) @ (T, S, C) batches the node mixing over time.
        """Compute the layer output (see class docstring)."""
        mixed = Tensor(adj_norm) @ x.transpose((1, 0, 2))
        mixed = mixed.transpose((1, 0, 2))
        return F.relu(self.fc(mixed))


class STConvBlock(Module):
    """Sandwich block: temporal GLU -> spatial conv -> temporal GLU."""

    def __init__(self, config: BaselineConfig, rng: np.random.Generator,
                 temporal_width: int = 3) -> None:
        super().__init__()
        c = config.channels
        self.temporal1 = _GatedTemporalConv(c, temporal_width, rng)
        self.spatial = _SpatialGraphConv(c, rng)
        self.temporal2 = _GatedTemporalConv(c, temporal_width, rng)
        self.norm = LayerNorm(c)

    def forward(self, x: Tensor, adj_norm: np.ndarray) -> Tensor:
        """Compute the layer output (see class docstring)."""
        h = self.temporal1(x)
        h = self.spatial(h, adj_norm)
        h = self.temporal2(h)
        return self.norm(h + x)


class STGCN(Module):
    """Two-block STGCN forecaster."""

    name = "STGCN"
    kind = "neural"

    def __init__(self, config: BaselineConfig,
                 rng: Optional[np.random.Generator] = None, seed: int = 0,
                 num_blocks: int = 2) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(seed)
        config.validate()
        self.config = config
        self.input = SequenceInput(config, rng)
        self.blocks = [STConvBlock(config, rng) for _ in range(num_blocks)]
        self.head = ForecastHead(config, rng)
        self._adj_cache: Optional[np.ndarray] = None
        self._adj_graph_id: Optional[int] = None

    def _adjacency(self, graph: ESellerGraph) -> np.ndarray:
        if self._adj_graph_id != id(graph):
            self._adj_cache = graph.normalized_adjacency()
            self._adj_graph_id = id(graph)
        return self._adj_cache

    def forward(self, batch: InstanceBatch, graph: ESellerGraph,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """Forecasts ``(S, T')``; only the ``rows`` rows when given (the
        head runs on them, everything before it on the whole graph)."""
        adj = self._adjacency(graph)
        h = self.input(batch)
        for block in self.blocks:
            h = block(h, adj)
        return self.head(h, rows)
