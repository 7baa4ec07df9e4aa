"""LogTrans baseline (Li et al., NeurIPS 2019).

Transformer for time-series forecasting with two signature ideas, both
implemented here:

* **convolutional self-attention** — queries and keys come from causal
  1-D convolutions (width > 1), making attention aware of local shape
  (this is the same locality trick Gaia's CAU cites);
* **log-sparse attention** — optionally, each position attends only to
  itself and to exponentially-spaced past offsets.

LogTrans is a pure per-shop sequence model: it sees no graph, which is
exactly why the paper uses it as the strongest graph-free baseline in
the Fig 3 temporal-deficiency analysis.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.dataset import InstanceBatch
from ..graph.graph import ESellerGraph
from ..nn import functional as F
from ..nn.layers import Conv1d, Dropout, LayerNorm, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor
from .common import BaselineConfig, ForecastHead, SequenceInput

__all__ = ["LogTrans", "ConvSelfAttention"]


class ConvSelfAttention(Module):
    """Multi-head causal self-attention with convolutional Q/K."""

    def __init__(self, config: BaselineConfig, rng: np.random.Generator,
                 kernel_width: int = 3, log_sparse: bool = False) -> None:
        super().__init__()
        config.validate()
        c = config.channels
        self.heads = config.num_heads
        self.head_dim = c // self.heads
        self.conv_q = Conv1d(c, c, width=kernel_width, rng=rng, padding="causal")
        self.conv_k = Conv1d(c, c, width=kernel_width, rng=rng, padding="causal")
        self.proj_v = Linear(c, c, rng, bias=False)
        self.proj_out = Linear(c, c, rng, bias=False)
        self.log_sparse = log_sparse
        self._mask_cache: dict = {}

    def _mask(self, t: int) -> np.ndarray:
        if t not in self._mask_cache:
            mask = F.log_sparse_mask(t) if self.log_sparse else F.causal_mask(t)
            self._mask_cache[t] = mask
        return self._mask_cache[t]

    def _split_heads(self, x: Tensor) -> Tensor:
        s, t, _ = x.shape
        return x.reshape(s, t, self.heads, self.head_dim).transpose((0, 2, 1, 3))

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        s, t, c = x.shape
        q = self._split_heads(self.conv_q(x))      # (S, h, T, d)
        k = self._split_heads(self.conv_k(x))
        v = self._split_heads(self.proj_v(x))
        scores = (q @ k.transpose()) * (1.0 / np.sqrt(self.head_dim))
        attention = F.masked_softmax(scores, self._mask(t))
        mixed = (attention @ v).transpose((0, 2, 1, 3)).reshape(s, t, c)
        return self.proj_out(mixed)


class _TransformerBlock(Module):
    """Pre-norm transformer block: conv attention + position-wise FFN."""

    def __init__(self, config: BaselineConfig, rng: np.random.Generator,
                 log_sparse: bool) -> None:
        super().__init__()
        c = config.channels
        self.attention = ConvSelfAttention(config, rng, log_sparse=log_sparse)
        self.norm1 = LayerNorm(c)
        self.norm2 = LayerNorm(c)
        self.ff1 = Linear(c, 2 * c, rng)
        self.ff2 = Linear(2 * c, c, rng)
        self.dropout = Dropout(config.dropout, rng) if config.dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        h = x + self.attention(self.norm1(x))
        ff = self.ff2(F.relu(self.ff1(self.norm2(h))))
        if self.dropout is not None:
            ff = self.dropout(ff)
        return h + ff


class LogTrans(Module):
    """Convolutional-attention transformer forecaster (graph-free).

    The paper configures 3 attention blocks with 3 heads; block and
    head counts are taken from :class:`BaselineConfig`.
    """

    name = "LogTrans"
    kind = "neural"

    def __init__(self, config: BaselineConfig,
                 rng: Optional[np.random.Generator] = None, seed: int = 0,
                 num_blocks: int = 3, log_sparse: bool = False) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(seed)
        config.validate()
        self.config = config
        self.input = SequenceInput(config, rng)
        self.blocks = [
            _TransformerBlock(config, rng, log_sparse) for _ in range(num_blocks)
        ]
        self.head = ForecastHead(config, rng)

    def forward(self, batch: InstanceBatch, graph: Optional[ESellerGraph] = None,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """Forecasts ``(S, T')``; only the ``rows`` rows when given (the
        head runs on them, everything before it on the whole graph)."""
        h = self.input(batch)
        for block in self.blocks:
            h = block(h)
        return self.head(h, rows)
