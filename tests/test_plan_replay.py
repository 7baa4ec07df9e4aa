"""Plan-replay tests: planned replay == eager, and the backend seam.

* **planned replay is bitwise-identical to eager** — loss and gradients
  of a compiled float64 replay equal the eager walk's exact bits over
  repeated replays, for every fused-kernel family, and the same holds
  under the float32 backend;
* **a plan pins no activations between steps** — after warm replays
  the only bytes a compiled loss still holds are the parameter
  gradients it hands back.

Plus the backend seam: dtype policy of leaf tensors, ``use_backend``
nesting, ``load_state_dict`` cross-precision casts, and the registry's
float32 state twins.
"""

import tracemalloc

import numpy as np
import pytest

from repro.deploy.model_server import ModelRegistry
from repro.nn import engine
from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

pytestmark = pytest.mark.engine


@pytest.fixture(autouse=True)
def _restore_mode():
    previous = engine.engine_mode()
    yield
    engine.set_engine_mode(previous)


# ----------------------------------------------------------------------
# planned replay is bitwise-identical to eager, per kernel family
# ----------------------------------------------------------------------
def _builders():
    """One ``(loss_fn, params)`` factory per fused-kernel family.

    Each closure rebuilds the identical graph from *stable* leaves on
    every call (the ``CompiledLoss`` contract) and repeats its
    subexpressions, so one plan runs each kernel more than once and
    accumulates their gradients.
    """
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, 6, 3))
    m = rng.normal(size=(5, 4))
    mask = F.causal_mask(6)
    index = rng.integers(0, 5, size=9)

    def linear():
        xs = Tensor(m)
        w = Parameter(rng.normal(size=(4, 3)), name="w")
        b = Parameter(rng.normal(size=3), name="b")
        return lambda: ((xs @ w + b) + (xs @ w + b)).sum(), [w, b]

    def linear_act():
        xs = Tensor(m)
        w = Parameter(rng.normal(size=(4, 3)), name="w")
        b = Parameter(rng.normal(size=3), name="b")

        def fn():
            h = (F.relu(xs @ w + b) + F.relu(xs @ w + b)
                 + F.tanh(xs @ w + b) + F.sigmoid(xs @ w + b))
            return (h * h).sum()

        return fn, [w, b]

    def elementwise():
        xs = Tensor(m)
        w = Parameter(rng.normal(size=(4, 3)), name="w")

        def fn():
            h = xs @ w
            e = F.exp(h * Tensor(0.1)) + F.exp(h * Tensor(0.1))
            s = (F.sqrt(F.absolute(h) + Tensor(1.0))
                 + F.sqrt(F.absolute(h) + Tensor(1.0)))
            return (e * s).sum()

        return fn, [w]

    def conv():
        xs = Tensor(x)
        w = Parameter(rng.normal(size=(3, 3, 2)), name="cw")
        b = Parameter(rng.normal(size=2), name="cb")
        return (lambda: ((F.conv1d(xs, w, b) + F.conv1d(xs, w, b)) ** 2.0)
                .sum()), [w, b]

    def conv_bank():
        xs = Tensor(x)
        w1 = Parameter(rng.normal(size=(1, 3, 2)), name="w1")
        w2 = Parameter(rng.normal(size=(4, 3, 2)), name="w2")
        b1 = Parameter(rng.normal(size=2), name="b1")
        b2 = Parameter(rng.normal(size=2), name="b2")

        def bank():
            return F.conv_bank(xs, [w1, w2], [b1, b2])

        return lambda: (bank() + bank()).sum(), [w1, w2, b1, b2]

    def softmax_family():
        xs = Tensor(x)
        w = Parameter(rng.normal(size=(3, 6)), name="w")

        def fn():
            scores = xs @ w  # (4, 6, 6)
            att = (F.masked_softmax(scores * Tensor(0.5), mask)
                   + F.masked_softmax(scores * Tensor(0.5), mask))
            return (att * att).sum()

        return fn, [w]

    def graph_ops():
        h = Parameter(rng.normal(size=(5, 3)), name="h")

        def seg():
            return F.segment_sum(F.gather_rows(h, index), index, 5)

        return lambda: ((seg() + seg()) ** 2.0).sum(), [h]

    def mul_sum():
        a = Parameter(rng.normal(size=(4, 5)), name="a")
        b = Parameter(rng.normal(size=(4, 5)), name="b")
        return lambda: (a * b).sum() + (a * b).sum(), [a, b]

    return [(f.__name__, f) for f in [
        linear, linear_act, elementwise, conv, conv_bank,
        softmax_family, graph_ops, mul_sum,
    ]]


@pytest.mark.parametrize("family,make", _builders(), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_planned_replay_bitwise_equals_eager(family, make):
    loss_fn, params = make()

    # Eager reference bits (fused kernels, no plan).
    eager = loss_fn()
    eager.backward()
    ref_loss = float(eager.data)
    ref_grads = [p.grad.copy() for p in params]

    compiled = engine.CompiledLoss(loss_fn)
    for replay in range(3):
        for p in params:
            p.zero_grad()
        value = compiled.run()
        assert compiled.fallback_reason == "", compiled.fallback_reason
        assert value == ref_loss, f"{family}: loss bits differ at {replay}"
        for p, ref in zip(params, ref_grads):
            assert np.array_equal(p.grad, ref), (
                f"{family}: grad bits differ at replay {replay}"
            )
    assert compiled._plan is not None


def test_float32_planned_replay_matches_float32_eager_bitwise():
    """The equivalence gate is stated for float64, but replay is
    precision-agnostic: the same bitwise property holds under the
    float32 backend (same kernels, same schedule, float32 arrays)."""
    with engine.use_backend("float32"):
        rng = np.random.default_rng(3)
        xs = Tensor(rng.normal(size=(6, 4)))
        w = Parameter(rng.normal(size=(4, 3)), name="w")

        def loss_fn():
            h = F.tanh(xs @ w) + F.tanh(xs @ w)
            return (h * h).mean()

        eager = loss_fn()
        eager.backward()
        ref_loss, ref_grad = float(eager.data), w.grad.copy()
        assert w.grad.dtype == np.float32

        compiled = engine.CompiledLoss(loss_fn)
        for _ in range(3):
            w.zero_grad()
            assert compiled.run() == ref_loss
            assert np.array_equal(w.grad, ref_grad)
        assert compiled._plan is not None
        assert compiled._plan.backend.dtype == np.float32


# ----------------------------------------------------------------------
# steady-state footprint: a plan holds no activations between steps
# ----------------------------------------------------------------------
def test_warm_replays_hold_only_parameter_gradients():
    """Trainers keep one plan per batch for their whole lifetime, so any
    activation buffer a plan keeps between steps is multiplied by the
    number of batches.  After warm replays, the bytes still allocated
    since the loss was created must be the parameter gradients plus a
    few KiB of plan bookkeeping — far below one activation (1 MiB)."""
    rng = np.random.default_rng(21)
    xs = Tensor(rng.normal(size=(4096, 8)))
    target = Tensor(rng.normal(size=(4096, 32)))
    w = Parameter(rng.normal(size=(8, 32)), name="w")
    b = Parameter(rng.normal(size=32), name="b")
    params = [w, b]

    def loss_fn():
        # ``target`` enters as a leaf: ``- target`` would trace a
        # derived constant the plan then (rightly) keeps as a leaf.
        e = F.exp(F.tanh(xs @ w + b)) * target
        return (e * e).mean()

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        compiled = engine.CompiledLoss(loss_fn)
        for _ in range(4):  # trace, then three replays
            for p in params:
                p.zero_grad()
            compiled.run()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert compiled._plan is not None, compiled.fallback_reason
    grad_bytes = sum(p.grad.nbytes for p in params)
    slack = 64 * 1024
    assert held <= grad_bytes + slack, (
        f"plan holds {held} B between steps; parameter gradients are "
        f"{grad_bytes} B"
    )


# ----------------------------------------------------------------------
# backend seam
# ----------------------------------------------------------------------
class _TwoLayer(Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(9)
        self.fc1 = Linear(6, 8, rng=rng)
        self.fc2 = Linear(8, 3, rng=rng)

    def forward(self, x):
        return self.fc2(F.tanh(self.fc1(x)))


class TestBackends:
    def test_use_backend_nests_and_restores(self):
        assert engine.active_backend().name == "float64"
        with engine.use_backend("float32") as backend:
            assert backend is engine.BACKENDS["float32"]
            assert engine.active_dtype() == np.float32
            with engine.use_backend("float64"):
                assert engine.active_dtype() == np.float64
            assert engine.active_dtype() == np.float32
        assert engine.active_backend().name == "float64"

    def test_get_backend_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            engine.get_backend("bfloat16")
        with pytest.raises(TypeError):
            engine.use_backend(42)

    def test_leaf_tensors_follow_backend_dtype(self):
        data = [1.0, 2.0, 3.0]
        assert Tensor(data).data.dtype == np.float64
        with engine.use_backend("float32"):
            assert Tensor(data).data.dtype == np.float32
            assert Parameter(np.ones(3), name="p").data.dtype == np.float32

    def test_load_state_dict_casts_to_param_dtype(self):
        reference = _TwoLayer()
        state = reference.state_dict()
        with engine.use_backend("float32"):
            model = _TwoLayer()
        model.load_state_dict(state)  # float64 checkpoint -> float32 params
        for _name, param in model.named_parameters():
            assert param.data.dtype == np.float32
        restored = _TwoLayer()
        restored.load_state_dict(model.state_dict())
        for name, param in restored.named_parameters():
            assert param.data.dtype == np.float64

    def test_float32_forward_within_accuracy_budget(self):
        reference = _TwoLayer()
        state = reference.state_dict()
        with engine.use_backend("float32"):
            serving = _TwoLayer()
        serving.load_state_dict(state)
        x64 = np.random.default_rng(11).normal(size=(32, 6))
        out64 = reference(Tensor(x64)).data
        with engine.use_backend("float32"):
            out32 = serving(Tensor(x64)).data
        assert out32.dtype == np.float32
        deviation = np.max(np.abs(out32.astype(np.float64) - out64)
                           / (np.abs(out64) + 1.0))
        assert deviation <= engine.FLOAT32_ACCURACY_BUDGET, deviation

    def test_model_version_carries_float32_twin(self):
        registry = ModelRegistry()
        version = registry.publish(_TwoLayer(), trained_at_month=12)
        assert "float32" in version.state_twins  # pre-warmed at publish
        twin = version.state_for("float32")
        assert twin is version.state_twins["float32"]  # memoised
        for name, value in twin.items():
            assert value.dtype == np.float32
            np.testing.assert_allclose(value, version.state[name],
                                       rtol=1e-6)
        assert version.state_for("float64") is version.state

    def test_registry_load_into_respects_precision(self):
        registry = ModelRegistry()
        registry.publish(_TwoLayer(), trained_at_month=12)
        with engine.use_backend("float32"):
            serving = _TwoLayer()
        record = registry.load_into(serving, precision="float32")
        assert record.version == 1
        for _name, param in serving.named_parameters():
            assert param.data.dtype == np.float32
