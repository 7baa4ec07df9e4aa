"""ITA-GCN layer (paper §IV-C2, Eq. 8).

One layer produces the next representation of every center node by

* **inter neighbor attention** — CAU messages from every in-neighbor,
  mixed with attention weights ``alpha_{u,v}`` computed from 1xC
  convolutions of both endpoint representations (softmax over each
  node's in-edges), plus
* **intra self attention** — the CAU applied to the node's own series
  (``CAU(H_u, H_u)``), capturing periodic self-shift.

The layer is batched: Q/K/V are projected once per node, gathered per
edge, and neighbor messages are scattered back with ``segment_sum``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.graph import ESellerGraph
from ..graph.sampling import LayerBlock
from ..nn import functional as F
from ..nn import init
from ..nn.layers import Conv1d
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .cau import ConvolutionalAttentionUnit
from .config import GaiaConfig

__all__ = ["ITAGCNLayer"]


class ITAGCNLayer(Module):
    """Inter- and intra-temporal-shift-aware graph convolution layer."""

    def __init__(self, config: GaiaConfig, rng: np.random.Generator) -> None:
        super().__init__()
        c = config.channels
        t = config.input_window
        self.config = config
        self.cau = ConvolutionalAttentionUnit(config, rng)
        # alpha components: g(u, v) = mu^T tanh(L_s * H_u + L_d * H_v).
        self.conv_s = Conv1d(c, 1, width=1, rng=rng, padding="causal", bias=False)
        self.conv_d = Conv1d(c, 1, width=1, rng=rng, padding="causal", bias=False)
        self.mu = Parameter(init.normal((t,), rng, std=0.1), name="ita.mu")
        #: Per-edge neighbor-attention weights from the last forward
        #: pass (numpy, length E) — used by the Fig 4 case study.
        self.last_alpha: Optional[np.ndarray] = None
        #: Per-edge CAU attention maps from the last forward pass,
        #: shape ``(E, T, T)``.
        self.last_inter_attention: Optional[np.ndarray] = None
        #: Per-node intra CAU attention maps, shape ``(S, T, T)``.
        self.last_intra_attention: Optional[np.ndarray] = None

    def forward(self, h: Tensor, graph: ESellerGraph,
                block: Optional[LayerBlock] = None) -> Tensor:
        """Compute the layer output (see class docstring).

        With a ``block`` (one layer of a
        :func:`~repro.graph.sampling.receptive_field`), ``h`` holds the
        block's input rows and the output its ``num_out`` leading rows:
        K/V and the gate terms run on every input row; Q, intra and
        inter attention, the neighbor softmax and the sum run only for
        the output rows and the edges into them.  The attention maps
        then cover the block: ``last_intra_attention`` one map per
        output row, ``last_alpha`` / ``last_inter_attention`` one entry
        per ``block.edges`` edge.
        """
        block = block or LayerBlock.whole(graph)
        block.check_input(h.shape[0])
        num_out, src, dst = block.num_out, block.src, block.dst
        q, k, v = self.cau.project(h, num_out)

        # Intra self attention: CAU(H_u, H_u) for every output node.
        intra = self.cau.attend(q, F.leading_rows(k, num_out),
                                F.leading_rows(v, num_out))
        self.last_intra_attention = self.cau.last_attention

        if src.size == 0:
            self.last_alpha = np.zeros(0)
            self.last_inter_attention = None
            return intra

        # Inter neighbor attention: CAU(H_u, H_v) batched over edges.
        messages = self.cau.attend(
            F.gather_rows(q, dst), F.gather_rows(k, src), F.gather_rows(v, src)
        )
        self.last_inter_attention = self.cau.last_attention

        # alpha_{u,v}: scalar gate per edge, softmax over u's in-edges.
        # Both 1x1 gate convolutions read the same h: fused bank.
        gate_terms = F.conv_bank(
            h, [self.conv_s.weight, self.conv_d.weight]
        )                                           # (S, T, 2)
        s_term = gate_terms[:, :, 0:1]
        d_term = gate_terms[:, :, 1:2]
        combined = F.gather_rows(s_term, dst) + F.gather_rows(d_term, src)
        gate = F.tanh(combined).reshape(src.size, -1) @ self.mu   # (E,)
        alpha = F.segment_softmax(gate, dst, num_out)
        self.last_alpha = alpha.data.copy()

        weighted = messages * alpha.reshape(src.size, 1, 1)
        inter = F.segment_sum(weighted, dst, num_out)             # (S, T, C)
        return inter + intra
