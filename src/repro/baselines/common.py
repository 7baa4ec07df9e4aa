"""Shared scaffolding for the baseline models.

Every neural baseline follows the same contract as Gaia —
``forward(batch, graph) -> Tensor (S, H)`` in scaled space — so the one
trainer and benchmark harness drive all nine methods identically.  This
module holds the common configuration, input assembly and the forecast
head (1xC convolution + ``T x T'`` linear + ReLU) shared across models
so that head capacity never confounds the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..data.dataset import InstanceBatch
from ..nn import functional as F
from ..nn import init
from ..nn.layers import Conv1d, Linear
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor

__all__ = ["BaselineConfig", "SequenceInput", "FlatInput", "ForecastHead"]


@dataclass
class BaselineConfig:
    """Common baseline hyper-parameters (paper §V-A3: channel size 32,
    2 GNN layers; our default channel size matches Gaia's)."""

    input_window: int = 24
    horizon: int = 3
    temporal_dim: int = 4
    static_dim: int = 12
    channels: int = 16
    num_layers: int = 2
    num_heads: int = 2
    dropout: float = 0.0
    #: "identity" for signed per-shop-normalised log targets (default)
    #: or "relu" for non-negative raw-space targets.
    final_activation: str = "identity"

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.channels % max(self.num_heads, 1) != 0:
            raise ValueError(
                f"channels ({self.channels}) must be divisible by num_heads "
                f"({self.num_heads})"
            )
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")


class SequenceInput(Module):
    """Project per-timestep inputs ``[z_t || f^T_t || f^S]`` to ``C`` channels.

    Output shape ``(S, T, C)`` — the entry point for sequence models
    (LogTrans, STGCN, GMAN, MTGNN).
    """

    def __init__(self, config: BaselineConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        in_dim = 1 + config.temporal_dim + config.static_dim
        self.proj = Linear(in_dim, config.channels, rng)

    def forward(self, batch: InstanceBatch) -> Tensor:
        """Compute the layer output (see class docstring)."""
        s, t = batch.series_scaled.shape
        static = np.broadcast_to(
            batch.static[:, None, :], (s, t, batch.static.shape[-1])
        )
        raw = np.concatenate(
            [batch.series_scaled[:, :, None], batch.temporal, static], axis=-1
        )
        return self.proj(Tensor(raw))


class FlatInput(Module):
    """Flatten a batch into one vector per node for structure-only GNNs.

    The paper's pure-GNN baselines (GAT, GraphSAGE, GeniePath) have no
    temporal module; the series enters as a flat feature block:
    ``[scaled series (T) || mask (T) || mean temporal (DT) || static]``.
    Output shape ``(S, C)`` after projection.
    """

    def __init__(self, config: BaselineConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        in_dim = 2 * config.input_window + config.temporal_dim + config.static_dim
        self.proj = Linear(in_dim, config.channels, rng)

    def forward(self, batch: InstanceBatch) -> Tensor:
        """Compute the layer output (see class docstring)."""
        parts = np.concatenate(
            [
                batch.series_scaled,
                batch.mask.astype(np.float64),
                batch.temporal.mean(axis=1),
                batch.static,
            ],
            axis=-1,
        )
        return F.relu(self.proj(Tensor(parts)))


class ForecastHead(Module):
    """Map ``(S, T, C)`` representations to ``(S, T')`` forecasts.

    Mirrors Gaia's Eq. 9 head (1xC convolution, ``T x T'`` linear map,
    final ReLU) so every sequence baseline shares head capacity.
    """

    def __init__(self, config: BaselineConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.final_activation = config.final_activation
        self.conv = Conv1d(config.channels, 1, width=1, rng=rng, padding="causal")
        self.w = Parameter(
            init.glorot_uniform((config.input_window, config.horizon), rng),
            name="head.w",
        )
        self.b = Parameter(init.zeros((config.horizon,)), name="head.b")

    def forward(self, h: Tensor, rows: Optional[np.ndarray] = None) -> Tensor:
        """Compute the layer output (of the ``rows`` rows only, when given)."""
        h = h if rows is None else F.gather_rows(h, rows)
        pooled = self.conv(h).reshape(h.shape[0], -1)
        out = pooled @ self.w + self.b
        if self.final_activation == "relu":
            out = F.relu(out)
        return out


class VectorHead(Module):
    """Map ``(S, C)`` node vectors to ``(S, T')`` forecasts (flat GNNs)."""

    def __init__(self, config: BaselineConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.final_activation = config.final_activation
        self.fc = Linear(config.channels, config.horizon, rng)

    def forward(self, h: Tensor, rows: Optional[np.ndarray] = None) -> Tensor:
        """Compute the layer output (of the ``rows`` rows only, when given)."""
        out = self.fc(h if rows is None else F.gather_rows(h, rows))
        if self.final_activation == "relu":
            out = F.relu(out)
        return out


__all__.append("VectorHead")
