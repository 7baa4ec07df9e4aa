"""The full Gaia model (paper §IV, Fig 2).

Pipeline: FFL fuses per-timestamp features → TEL extracts multi-scale
temporal patterns → ``L`` stacked ITA-GCN layers learn inter/intra
temporal shift over the e-seller graph → a residual prediction head
(Eq. 9) maps ``H^(L) + E`` to the ``T'``-month forecast through a 1xC
convolution, a ``T x T'`` linear map and a final ReLU.

The model consumes :class:`repro.data.dataset.InstanceBatch` plus an
:class:`repro.graph.graph.ESellerGraph` and predicts in the scaled
(non-negative log) space; the trainer inverse-transforms for metrics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.dataset import InstanceBatch
from ..graph.graph import ESellerGraph
from ..graph.sampling import receptive_field
from ..nn import functional as F
from ..nn import init
from ..nn.layers import Conv1d
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .config import GaiaConfig
from .ffl import FeatureFusionLayer
from .ita_gcn import ITAGCNLayer
from .tel import TemporalEmbeddingLayer

__all__ = ["Gaia"]


class Gaia(Module):
    """Graph neural network with temporal-shift-aware attention."""

    name = "Gaia"

    def __init__(self, config: GaiaConfig, rng: Optional[np.random.Generator] = None,
                 seed: int = 0) -> None:
        super().__init__()
        config.validate()
        if rng is None:
            rng = np.random.default_rng(seed)
        self.config = config
        self.ffl = FeatureFusionLayer(config, rng)
        self.tel = TemporalEmbeddingLayer(config, rng)
        self.layers = [ITAGCNLayer(config, rng) for _ in range(config.num_layers)]
        # Prediction head (Eq. 9).
        self.conv_p = Conv1d(config.channels, 1, width=1, rng=rng, padding="causal")
        self.w_p = Parameter(
            init.glorot_uniform((config.input_window, config.horizon), rng),
            name="gaia.w_p",
        )
        self.b_p = Parameter(init.zeros((config.horizon,)), name="gaia.b_p")

    # ------------------------------------------------------------------
    def embed(self, batch: InstanceBatch,
              nodes: Optional[np.ndarray] = None) -> Tensor:
        """FFL + TEL: per-node temporal embedding ``E_v`` of shape (S, T, C)
        (of the ``nodes`` rows only, in that order, when given)."""
        series, temporal, static = (
            batch.series_scaled, batch.temporal, batch.static)
        if nodes is not None:
            series, temporal, static = (
                series[nodes], temporal[nodes], static[nodes])
        fused = self.ffl(Tensor(series), Tensor(temporal), Tensor(static))
        return self.tel(fused)

    def forward(self, batch: InstanceBatch, graph: ESellerGraph,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """Predict scaled GMV for the horizon months, shape ``(S, T')``.

        ``rows`` names the only output rows the caller reads; the result
        is then ``(len(rows), T')``, row ``i`` the forecast of node
        ``rows[i]`` (rows may repeat and come in any order).  Only their
        receptive field is computed (:func:`receptive_field`): FFL and
        TEL on ``N_0``, layer ``l`` from ``N_{l-1}`` to ``N_l``, the head
        on ``rows``.  It equals the full forward's rows to within
        1e-12 relative.  ``rows=None``, or every node in order, runs the
        full graph.
        """
        if rows is not None and len(rows) == graph.num_nodes and \
                np.array_equal(rows, np.arange(graph.num_nodes)):
            rows = None         # every node in order: nothing to prune
        if rows is None:
            field, nodes, blocks = None, None, [None] * len(self.layers)
        else:
            field = receptive_field(graph, rows, len(self.layers))
            nodes, blocks = field.nodes, field.blocks
        embedding = self.embed(batch, nodes)
        h = embedding
        for layer, block in zip(self.layers, blocks):
            h = layer(h, graph, block)
        residual = h + F.leading_rows(embedding, h.shape[0])
        if field is not None and field.row_index is not None:
            residual = F.gather_rows(residual, field.row_index)
        pooled = self.conv_p(residual)                    # (S, T, 1)
        pooled = pooled.reshape(residual.shape[0], -1)    # (S, T)
        out = pooled @ self.w_p + self.b_p                # (S, T')
        if self.config.final_activation == "relu":
            out = F.relu(out)                             # literal Eq. 9
        return out

    # ------------------------------------------------------------------
    # introspection for the Fig 4 case study
    # ------------------------------------------------------------------
    def intra_attention(self) -> Optional[np.ndarray]:
        """Last layer's per-node intra CAU attention maps ``(S, T, T)``."""
        return self.layers[-1].last_intra_attention

    def inter_attention(self) -> Optional[np.ndarray]:
        """Last layer's per-edge inter CAU attention maps ``(E, T, T)``."""
        return self.layers[-1].last_inter_attention

    def neighbor_alpha(self) -> Optional[np.ndarray]:
        """Last layer's per-edge neighbor mixing weights ``(E,)``."""
        return self.layers[-1].last_alpha
