"""Training loop for graph forecasting models.

The trainer is model-agnostic: anything with ``forward(batch, graph,
rows=None) -> Tensor (S, H)`` in scaled space (``(len(rows), H)`` for
the ``rows`` shops when given) and ``parameters()`` can be trained.
Loss is MSE over shops that have at least one observed history month
(Eq. 10, restricted to shops that exist at the cutoff); early stopping
monitors validation loss; metrics are computed in raw units through the
dataset's scaler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data.dataset import ForecastDataset, InstanceBatch
from ..graph.graph import ESellerGraph
from ..nn import engine
from ..nn import functional as F
from ..nn.module import Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Tensor, no_grad
from ..obs import clock as obs_clock
from ..obs import tracing as obs_tracing
from .metrics import MetricTable, evaluate_forecast

__all__ = ["TrainConfig", "TrainHistory", "Trainer", "rows_mse"]


@dataclass
class TrainConfig:
    """Training hyper-parameters.

    The paper uses Adam with learning rate ``1e-5`` and batch size 32
    on 3M shops; on our small synthetic graphs full-batch training with
    a larger rate converges in far fewer steps, so the default rate is
    higher.  Everything is overridable for fidelity experiments.
    """

    epochs: int = 120
    learning_rate: float = 5e-3
    weight_decay: float = 0.0
    clip_norm: float = 5.0
    patience: int = 20
    min_epochs: int = 10
    verbose: bool = False
    #: Route training steps through the planned execution engine
    #: (:mod:`repro.nn.engine`): trace each train batch once, then
    #: replay the cached plan with reused gradient buffers.  Falls back
    #: to eager execution automatically for dynamic graphs (dropout)
    #: or when the engine mode is ``"eager"``.
    use_engine: bool = True


@dataclass
class TrainHistory:
    """Per-epoch training trace."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    best_epoch: int = -1
    seconds: float = 0.0

    @property
    def epochs_run(self) -> int:
        """Number of epochs actually executed."""
        return len(self.train_loss)


def _active_shops(batch: InstanceBatch) -> np.ndarray:
    """Shops with at least one observed input month."""
    return batch.mask.any(axis=1)


def rows_mse(model: Module, batch: InstanceBatch, graph: ESellerGraph,
             rows: np.ndarray) -> Tensor:
    """MSE of ``model``'s scaled forecasts for ``rows`` against their
    labels, forwarding only those rows."""
    diff = model(batch, graph, rows=rows) - Tensor(batch.labels_scaled[rows])
    return (diff * diff).mean()


class Trainer:
    """Full-batch trainer with early stopping and best-weight restore."""

    def __init__(self, model: Module, dataset: ForecastDataset,
                 config: Optional[TrainConfig] = None) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config or TrainConfig()
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.history = TrainHistory()
        # One compiled loss per train batch: the batch's arrays/masks are
        # the plan's constants, so keying by batch keeps replay static.
        self._compiled: Dict[int, engine.CompiledLoss] = {}

    # ------------------------------------------------------------------
    def _loss(self, batch: InstanceBatch, role: str) -> Tensor:
        pred = self.model(batch, self.dataset.graph)
        active = _active_shops(batch) & self.dataset.node_mask(role)
        if not active.any():
            raise RuntimeError(f"batch has no active shops for role {role!r}")
        diff = pred[active] - Tensor(batch.labels_scaled[active])
        return (diff * diff).mean()

    def _val_loss(self) -> float:
        """``_loss`` of the val batch, forwarding only the rows it reads
        (equal to the full-graph loss within 1e-12).

        Train steps keep the full forward: its compiled plan is
        batch-static, and a pruned one is a different plan.
        """
        batch = self.dataset.val
        rows = np.flatnonzero(_active_shops(batch) & self.dataset.node_mask("val"))
        if rows.size == 0:
            raise RuntimeError("batch has no active shops for role 'val'")
        self.model.eval()
        with no_grad():
            loss = rows_mse(self.model, batch, self.dataset.graph, rows)
        self.model.train()
        return loss.item()

    def _train_step_loss(self, batch_index: int, batch: InstanceBatch) -> float:
        """One forward/backward on a train batch; returns the loss.

        With ``use_engine`` the step runs through a per-batch
        :class:`~repro.nn.engine.CompiledLoss`: identical gradients
        (bit-for-bit — the planned executor replays the same kernels in
        the same order), minus the per-step graph construction.
        """
        if self.config.use_engine and engine.fused_enabled():
            compiled = self._compiled.get(batch_index)
            if compiled is None:
                compiled = engine.CompiledLoss(
                    lambda b=batch: self._loss(b, "train")
                )
                self._compiled[batch_index] = compiled
            return compiled.run()
        loss = self._loss(batch, "train")
        loss.backward()
        return loss.item()

    # ------------------------------------------------------------------
    def fit(self) -> TrainHistory:
        """Train until convergence or the epoch budget; restore best weights."""
        cfg = self.config
        started = obs_clock.now()
        best_val = float("inf")
        best_state = None
        stall = 0
        self.model.train()
        for epoch in range(cfg.epochs):
            epoch_losses = []
            with obs_tracing.span("train.epoch"):
                for batch_index, batch in enumerate(self.dataset.train):
                    with obs_tracing.span("train.step"):
                        self.optimizer.zero_grad()
                        loss_value = self._train_step_loss(batch_index, batch)
                        clip_grad_norm(self.optimizer.parameters,
                                       cfg.clip_norm)
                        self.optimizer.step()
                    epoch_losses.append(loss_value)
                train_loss = float(np.mean(epoch_losses))
                val_loss = self._val_loss()
            self.history.train_loss.append(train_loss)
            self.history.val_loss.append(val_loss)
            if cfg.verbose:
                print(f"epoch {epoch:3d} train {train_loss:.5f} val {val_loss:.5f}")
            if val_loss < best_val - 1e-7:
                best_val = val_loss
                best_state = self.model.state_dict()
                self.history.best_epoch = epoch
                stall = 0
            else:
                stall += 1
                if epoch + 1 >= cfg.min_epochs and stall >= cfg.patience:
                    break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        self.history.seconds = obs_clock.now() - started
        return self.history

    # ------------------------------------------------------------------
    def predict_raw(self, batch: InstanceBatch,
                    rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Forecast in raw GMV units for every shop in the batch (for the
        ``rows`` shops only, forwarding just those rows, when given)."""
        self.model.eval()
        with no_grad():
            pred_scaled = self.model(batch, self.dataset.graph, rows=rows)
        return batch.inverse_scale(pred_scaled.data, rows)

    def evaluate(self, batch: Optional[InstanceBatch] = None,
                 shop_mask: Optional[np.ndarray] = None,
                 role: str = "test") -> MetricTable:
        """Raw-unit metric table on ``batch`` (default: the test batch).

        Evaluation is restricted to shops active at the cutoff and in
        the ``role`` node set (shop split), intersected with
        ``shop_mask`` if given.
        """
        if batch is None:
            batch = self.dataset.test if role == "test" else self.dataset.val
        active = _active_shops(batch) & self.dataset.node_mask(role)
        if shop_mask is not None:
            active = active & np.asarray(shop_mask, dtype=bool)
        rows = np.flatnonzero(active)
        pred = (self.predict_raw(batch, rows) if rows.size
                else np.zeros((0, batch.horizon)))
        return evaluate_forecast(pred, batch.labels[rows], batch.horizon_names)
