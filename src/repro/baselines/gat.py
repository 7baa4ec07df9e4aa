"""GAT baseline (Velickovic et al., ICLR 2018).

Structure-only GNN: the GMV series enters as a flat feature vector (no
temporal module), and two multi-head graph-attention layers aggregate
neighbors with additive LeakyReLU attention — the paper's point being
that graph structure alone, without temporal modelling, is not enough.
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
from .common import BaselineConfig, FlatInput, VectorHead

__all__ = ["GATLayer", "GAT"]


class GATLayer(Module):
    """Single multi-head GAT layer over ``(S, C)`` node vectors.

    Heads are concatenated; a self loop is always included so isolated
    nodes keep their own representation.
    """

    def __init__(self, in_dim: int, out_dim: int, num_heads: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        if out_dim % num_heads != 0:
            raise ValueError(f"out_dim {out_dim} not divisible by heads {num_heads}")
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.proj = Linear(in_dim, out_dim, rng, bias=False)
        self.attn_src = Parameter(
            init.glorot_uniform((num_heads, self.head_dim), rng), name="gat.attn_src"
        )
        self.attn_dst = Parameter(
            init.glorot_uniform((num_heads, self.head_dim), rng), name="gat.attn_dst"
        )

    def forward(self, h: Tensor, graph: ESellerGraph) -> Tensor:
        """Compute the layer output (see class docstring)."""
        num_nodes = h.shape[0]
        # Self loops so every node attends at least to itself.
        src = np.concatenate([graph.src, np.arange(num_nodes)])
        dst = np.concatenate([graph.dst, np.arange(num_nodes)])

        projected = self.proj(h).reshape(num_nodes, self.num_heads, self.head_dim)
        score_src = (projected * self.attn_src).sum(axis=-1)   # (S, heads)
        score_dst = (projected * self.attn_dst).sum(axis=-1)   # (S, heads)
        edge_scores = F.leaky_relu(
            F.gather_rows(score_src, src) + F.gather_rows(score_dst, dst)
        )
        # Per-head segment softmax over each destination's in-edges.
        head_outputs = []
        for head in range(self.num_heads):
            alpha = F.segment_softmax(edge_scores[:, head], dst, num_nodes)
            values = F.gather_rows(projected[:, head, :], src)
            weighted = values * alpha.reshape(-1, 1)
            head_outputs.append(F.segment_sum(weighted, dst, num_nodes))
        return F.concat(head_outputs, axis=-1)


class GAT(Module):
    """Two-layer GAT forecaster on flat node features."""

    name = "GAT"
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
        self.layers = [
            GATLayer(c, c, config.num_heads, rng) for _ in range(config.num_layers)
        ]
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
