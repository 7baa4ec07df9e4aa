"""GMAN baseline (Zheng et al., AAAI 2020).

Graph multi-attention network, compact but structurally faithful:

* a **spatio-temporal embedding** (learned node embedding + cyclical
  time encoding, fused by a small MLP) is added to the input;
* each ST-attention block computes **spatial attention** (each node
  attends over all nodes, per timestep), **temporal attention** (each
  node attends over its own timeline, causally masked), and merges the
  two with a **gated fusion** unit;
* residual connections wrap every block.

The node-to-node spatial attention is dense (O(S^2) per timestep),
which is fine at reproduction scale and mirrors GMAN's design.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.dataset import InstanceBatch
from ..graph.graph import ESellerGraph
from ..nn import functional as F
from ..nn import init
from ..nn.layers import Linear
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .common import BaselineConfig, ForecastHead, SequenceInput

__all__ = ["GMAN"]


class _SpatialAttention(Module):
    """Per-timestep attention across nodes."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.channels = channels
        self.proj_q = Linear(channels, channels, rng, bias=False)
        self.proj_k = Linear(channels, channels, rng, bias=False)
        self.proj_v = Linear(channels, channels, rng, bias=False)

    def forward(self, x: Tensor) -> Tensor:
        # x: (S, T, C) -> attend across S for each t: work in (T, S, C).
        """Compute the layer output (see class docstring)."""
        xt = x.transpose((1, 0, 2))
        q = self.proj_q(xt)
        k = self.proj_k(xt)
        v = self.proj_v(xt)
        scores = (q @ k.transpose()) * (1.0 / np.sqrt(self.channels))  # (T, S, S)
        attention = F.softmax(scores, axis=-1)
        return (attention @ v).transpose((1, 0, 2))


class _TemporalAttention(Module):
    """Per-node causal attention across timestamps."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.channels = channels
        self.proj_q = Linear(channels, channels, rng, bias=False)
        self.proj_k = Linear(channels, channels, rng, bias=False)
        self.proj_v = Linear(channels, channels, rng, bias=False)
        self._mask_cache: dict = {}

    def _mask(self, t: int) -> np.ndarray:
        if t not in self._mask_cache:
            self._mask_cache[t] = F.causal_mask(t)
        return self._mask_cache[t]

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        q = self.proj_q(x)
        k = self.proj_k(x)
        v = self.proj_v(x)
        scores = (q @ k.transpose()) * (1.0 / np.sqrt(self.channels))  # (S, T, T)
        attention = F.masked_softmax(scores, self._mask(x.shape[1]))
        return attention @ v


class _GatedFusion(Module):
    """GMAN's gate: ``z = sigmoid(W_s h_s + W_t h_t); z*h_s + (1-z)*h_t``."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.w_s = Linear(channels, channels, rng, bias=False)
        self.w_t = Linear(channels, channels, rng)

    def forward(self, h_spatial: Tensor, h_temporal: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        z = F.sigmoid(self.w_s(h_spatial) + self.w_t(h_temporal))
        return z * h_spatial + (1.0 - z) * h_temporal


class _STAttentionBlock(Module):
    """Spatial + temporal attention merged by gated fusion, residual."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.spatial = _SpatialAttention(channels, rng)
        self.temporal = _TemporalAttention(channels, rng)
        self.fusion = _GatedFusion(channels, rng)

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        return x + self.fusion(self.spatial(x), self.temporal(x))


class GMAN(Module):
    """Graph multi-attention forecaster with ST embeddings."""

    name = "GMAN"
    kind = "neural"

    def __init__(self, config: BaselineConfig,
                 rng: Optional[np.random.Generator] = None, seed: int = 0,
                 num_blocks: int = 1, max_nodes: int = 100_000) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(seed)
        config.validate()
        self.config = config
        c = config.channels
        self.input = SequenceInput(config, rng)
        # Spatio-temporal embedding: node embedding fused with the
        # cyclical time encoding already present in the temporal block.
        self._node_embed_rng = rng
        self.node_embedding: Optional[Parameter] = None
        self.time_proj = Linear(2, c, rng)
        self.blocks = [_STAttentionBlock(c, rng) for _ in range(num_blocks)]
        self.head = ForecastHead(config, rng)
        self._max_nodes = max_nodes

    def _ste(self, batch: InstanceBatch, num_nodes: int) -> Tensor:
        c = self.config.channels
        if self.node_embedding is None or self.node_embedding.data.shape[0] != num_nodes:
            self.node_embedding = Parameter(
                init.normal((num_nodes, c), self._node_embed_rng, std=0.05),
                name="gman.node_embedding",
            )
        # Cyclical month encoding lives in temporal channels 0 and 1.
        time_encoding = self.time_proj(Tensor(batch.temporal[:, :, :2]))
        node = self.node_embedding.reshape(num_nodes, 1, c)
        return time_encoding + node

    def forward(self, batch: InstanceBatch, graph: ESellerGraph,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """Forecasts ``(S, T')``; only the ``rows`` rows when given (the
        head runs on them, everything before it on the whole graph)."""
        if graph.num_nodes > self._max_nodes:
            raise ValueError("GMAN's dense spatial attention exceeds max_nodes")
        h = self.input(batch) + self._ste(batch, graph.num_nodes)
        for block in self.blocks:
            h = block(h)
        return self.head(h, rows)
