"""Graph-plan execution engine for the ``repro.nn`` autograd substrate.

Every model in this repository bottoms out in the reverse-mode autograd
of :mod:`repro.nn.tensor`.  The original implementation was deliberately
eager: each op allocated a fresh ``Tensor``, captured a backward closure,
and every ``backward()`` re-derived a topological order.  This module is
the remedy — *record once, plan, then execute* — in four layers:

1. **Kernel registry** (:data:`KERNELS`).  Every primitive op is a named
   :class:`OpKernel` holding a pure ``forward(meta, arrays)`` /
   ``vjp(meta, grad, arrays, out, saved)`` pair.  The eager dispatcher in
   :mod:`repro.nn.tensor` and the planned executor below share these
   functions, so eager and planned execution are the *same numerics by
   construction*.  Kernels may carry a slower ``reference`` variant that
   preserves the original (pre-engine) float association exactly; the
   optimized variants (GEMM conv backward instead of ``einsum``,
   sort+``reduceat`` scatter-add instead of ``np.add.at``, in-place
   masked softmax, width-1 conv specialisation) are selected whenever the
   engine mode is not ``"eager"``.

2. **Construction-time fusion** (:func:`match_fusion`).  When the
   dispatcher records ``add(matmul(x, w), b)`` it emits a single
   ``linear`` node with parents ``(x, w, b)`` and a fused VJP; a
   following ``relu`` / ``tanh`` / ``sigmoid`` folds into
   ``linear_<act>``, and ``sum(mul(a, b))`` becomes a ``mul_sum``
   reduction whose VJP never materialises the broadcast gradient.  The
   fused forward reuses the already-computed producer value, so fusion
   is free at record time, and the fused VJPs are element-for-element
   identical to the composition they replace.

3. **Plan cache + replay** (:class:`CompiledLoss`).  Tracing one forward
   records a tape; the tape is pruned to the loss ancestors, its
   creation order *is* a topological order (parents are always created
   before children), and the resulting :class:`PlanStructure` — the op
   schedule — is cached in a module-level table keyed by the graph's
   structural signature, so the topological order is derived once per
   architecture rather than re-sorted on every ``backward()``.  An
   :class:`ExecutionPlan` binds a structure to concrete leaves and
   replays forward + backward as a flat loop over arrays with
   pre-allocated, step-reused gradient buffers: no ``Tensor`` objects,
   no closures, no per-step garbage.

4. **Backends** (:mod:`repro.nn.backends`).  A plan binds to the
   :class:`~repro.nn.backends.ExecutionBackend` active at compile time,
   which supplies the dtype policy — ``float64`` (trainers; the bitwise
   gate below) and a ``float32`` serving backend selected per
   ``GatewayConfig(precision=...)`` with an explicit accuracy budget.
   Both run the one shared kernel table, and replay calls each step's
   single ``forward``/``vjp`` pair, so planned float64 replay stays
   bitwise-identical to the fused eager walk.

Replay assumes the traced structure is *static*: same batch arrays, same
index/mask constants, same control flow.  Ops whose recorded constants
depend on tensor *values* (dropout masks, Huber's quadratic/linear
split) call :func:`mark_dynamic` during tracing, and the compiled loss
transparently falls back to fused-eager execution.  Trainers key one
``CompiledLoss`` per training batch, which makes the assumption hold by
construction; ``load_state_dict`` is safe because plans re-read
``parameter.data`` on every run.

Mode control: ``REPRO_NN_ENGINE`` (``"fused"`` default, ``"eager"`` for
the pre-engine reference path) or the :func:`use_mode` context manager.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracing import span as _obs_span
from .backends import (
    BACKENDS,
    FLOAT32_ACCURACY_BUDGET,
    ExecutionBackend,
    active_backend,
    active_dtype,
    get_backend,
    register_backend,
    use_backend,
)

__all__ = [
    "OpKernel",
    "KERNELS",
    "register_kernel",
    "ExecutionBackend",
    "BACKENDS",
    "FLOAT32_ACCURACY_BUDGET",
    "register_backend",
    "get_backend",
    "active_backend",
    "active_dtype",
    "use_backend",
    "ensure_allocator_tuned",
    "engine_mode",
    "set_engine_mode",
    "use_mode",
    "fused_enabled",
    "match_fusion",
    "trace",
    "mark_dynamic",
    "record_node",
    "PlanError",
    "PlanStructure",
    "ExecutionPlan",
    "CompiledLoss",
    "compile_plan",
    "inference_mode",
    "stats_snapshot",
    "reset_stats",
    "kernel_profiler",
    "set_kernel_profiler",
]


# ======================================================================
# mode control
# ======================================================================
_VALID_MODES = ("fused", "eager")
_MODE = [os.environ.get("REPRO_NN_ENGINE", "fused")]
if _MODE[0] not in _VALID_MODES:
    _MODE[0] = "fused"


def engine_mode() -> str:
    """Current execution mode: ``"fused"`` or ``"eager"``."""
    return _MODE[0]


def set_engine_mode(mode: str) -> None:
    """Switch the global execution mode."""
    if mode not in _VALID_MODES:
        raise ValueError(f"unknown engine mode {mode!r}; use one of {_VALID_MODES}")
    _MODE[0] = mode


class use_mode:
    """Context manager pinning the engine mode for a block."""

    def __init__(self, mode: str) -> None:
        if mode not in _VALID_MODES:
            raise ValueError(f"unknown engine mode {mode!r}; use one of {_VALID_MODES}")
        self._mode = mode

    def __enter__(self) -> "use_mode":
        self._prev = _MODE[0]
        _MODE[0] = self._mode
        return self

    def __exit__(self, *exc_info: object) -> None:
        _MODE[0] = self._prev


def fused_enabled() -> bool:
    """Whether fused kernels / fusion rewrites are active."""
    return _MODE[0] != "eager"


def _malloc_tune_enabled() -> bool:
    """Whether the glibc mmap-threshold tune is allowed by environment.

    ``REPRO_NN_MALLOC_TUNE=0`` (or ``false``/``no``/``off``) disables
    it; unset or any other value allows it.
    """
    flag = os.environ.get("REPRO_NN_MALLOC_TUNE", "")
    return flag.strip().lower() not in ("0", "false", "no", "off")


def _tune_allocator() -> bool:
    """Keep big step buffers on the heap instead of fresh mmap regions.

    Every training step churns through tens of megabytes of activation
    and gradient temporaries.  glibc serves allocations above its mmap
    threshold with fresh ``mmap`` regions that are unmapped on free, so
    each step pays a page fault per 4 KiB touched — measured at ~15-20%
    of Gaia's step time at 1000 shops.  Raising the threshold once lets
    the allocator recycle those buffers across steps (the engine's
    buffer reuse at the allocator level).  Best-effort: silently a no-op
    off glibc/Linux.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        m_mmap_threshold = -3  # glibc mallopt param constant
        return bool(libc.mallopt(m_mmap_threshold, 512 * 1024 * 1024))
    except Exception:
        return False


_MALLOC_TUNE_STATE = {"attempted": False, "tuned": False}


def ensure_allocator_tuned() -> bool:
    """Apply the mmap-threshold tune lazily, at most once per process.

    Called on the first eager/fallback step, on plan replays and on
    inference forwards — *not* at import.  Disabled entirely by
    ``REPRO_NN_MALLOC_TUNE=0`` (see :func:`_malloc_tune_enabled`).
    """
    state = _MALLOC_TUNE_STATE
    if state["attempted"]:
        return state["tuned"]
    state["attempted"] = True
    if not _malloc_tune_enabled():
        return False
    state["tuned"] = _tune_allocator()
    return state["tuned"]


# ======================================================================
# stats
# ======================================================================
_STATS: Dict[str, int] = {}
_STATS_LOCK = threading.Lock()


def _bump(key: str, amount: int = 1) -> None:
    # Gateway replica threads and trainer threads bump concurrently;
    # dict read-modify-write is not atomic, so serialise under a lock.
    with _STATS_LOCK:
        _STATS[key] = _STATS.get(key, 0) + amount


def stats_snapshot() -> Dict[str, int]:
    """Copy of the engine counters (plans built, replays, fusions, ...).

    Thread-safe (taken under the same lock ``_bump`` holds).  Includes
    the profiling plane's state: ``profiling_enabled`` (whether a
    :class:`repro.obs.profiling.KernelProfiler` is installed) and
    ``profiled_replays`` (replays that ran through the timed loops).
    """
    with _STATS_LOCK:
        snapshot = dict(_STATS)
    snapshot["profiling_enabled"] = int(_PROFILER[0] is not None)
    snapshot.setdefault("profiled_replays", 0)
    return snapshot


def reset_stats() -> None:
    """Zero all engine counters (thread-safe)."""
    with _STATS_LOCK:
        _STATS.clear()


# ======================================================================
# kernel profiling hook (see repro.obs.profiling)
# ======================================================================
_PROFILER: List[Optional[object]] = [None]


def kernel_profiler():
    """The installed per-kernel profiler, or ``None`` when disabled."""
    return _PROFILER[0]


def set_kernel_profiler(profiler) -> None:
    """Install a :class:`repro.obs.profiling.KernelProfiler` (or ``None``).

    While installed, ``ExecutionPlan.forward``/``backward`` replay
    through timed loops that attribute wall time and estimated
    FLOPs/bytes to each :class:`OpKernel`; when ``None`` (the default)
    the replay loops take their original untimed path, so profiling
    costs nothing unless switched on.  Prefer the
    :func:`repro.obs.profiling.profile_kernels` context manager, which
    restores the previous profiler on exit.
    """
    _PROFILER[0] = profiler


@contextmanager
def inference_mode():
    """``no_grad`` plus engine accounting for serving-style forwards."""
    from .tensor import no_grad

    # Serving forwards run eagerly (fresh buffers every call), so the
    # allocator tune pays for itself here; applied once, lazily.
    ensure_allocator_tuned()
    _bump("inference_forwards")
    with no_grad():
        yield


# ======================================================================
# kernel registry
# ======================================================================
class OpKernel:
    """A named forward/VJP pair, optionally with a reference variant.

    ``forward(meta, arrays) -> (out, saved)`` computes the op on raw
    numpy arrays; ``saved`` is opaque data reused by the VJP.
    ``vjp(meta, grad, arrays, out, saved) -> tuple`` returns one
    gradient (or ``None``) per input array; the caller unbroadcasts.
    ``ref_forward`` / ``ref_vjp`` preserve the pre-engine float
    association bit-for-bit and are used in ``"eager"`` mode.
    """

    __slots__ = ("name", "forward", "vjp", "ref_forward", "ref_vjp")

    def __init__(self, name: str, forward: Callable, vjp: Callable,
                 ref_forward: Optional[Callable] = None,
                 ref_vjp: Optional[Callable] = None) -> None:
        self.name = name
        self.forward = forward
        self.vjp = vjp
        self.ref_forward = ref_forward or forward
        self.ref_vjp = ref_vjp or vjp


KERNELS: Dict[str, OpKernel] = {}


def register_kernel(name: str, forward: Callable, vjp: Callable,
                    ref_forward: Optional[Callable] = None,
                    ref_vjp: Optional[Callable] = None) -> OpKernel:
    """Add an :class:`OpKernel` to the registry (see
    ``docs/ARCHITECTURE.md``, "Adding a fused kernel", for the recipe)."""
    kernel = OpKernel(name, forward, vjp, ref_forward, ref_vjp)
    KERNELS[name] = kernel
    return kernel


def select_kernel(name: str) -> Tuple[Callable, Callable]:
    """Resolve the (forward, vjp) pair for the current mode."""
    kernel = KERNELS[name]
    if fused_enabled():
        return kernel.forward, kernel.vjp
    return kernel.ref_forward, kernel.ref_vjp


# ======================================================================
# shared numeric helpers
# ======================================================================
def _matmul_vjp_arrays(grad: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Gradients of ``a @ b`` following numpy semantics (incl. batched)."""
    from .tensor import unbroadcast

    if a.ndim == 1 and b.ndim == 1:
        return grad * b, grad * a
    if a.ndim == 1:
        # (k,) @ (..., k, n) -> (..., n)
        ga = (grad[..., None, :] * b).sum(axis=-1)
        gb = a[:, None] * grad[..., None, :]
        return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)
    if b.ndim == 1:
        # (..., m, k) @ (k,) -> (..., m)
        ga = grad[..., :, None] * b
        gb = (a * grad[..., :, None]).sum(axis=tuple(range(a.ndim - 1)))
        return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)
    ga = grad @ np.swapaxes(b, -1, -2)
    if b.ndim == 2 and a.ndim > 2 and fused_enabled():
        # Batched activations against one shared 2-D weight: fold the
        # batch axes into the contraction and run a single GEMM instead
        # of a stack of tiny ones followed by a reduction over a large
        # temporary (transposed orientation: BLAS prefers small-M
        # huge-K this way round).
        k, n = b.shape
        gb = (grad.reshape(-1, n).T @ a.reshape(-1, k)).T
        return unbroadcast(ga, a.shape), gb
    gb = np.swapaxes(a, -1, -2) @ grad
    return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)


def _scatter_rows(index: np.ndarray, values: np.ndarray, num_rows: int,
                  meta: dict) -> np.ndarray:
    """Scatter-add ``values`` rows into ``num_rows`` buckets.

    Implemented as one ``np.bincount`` over a flattened composite index
    ``row * row_size + column`` — a tight C accumulation loop that beats
    ``np.add.at`` ~4x at this repo's edge counts (a sort + ``reduceat``
    pipeline was measured and rejected too).  ``bincount`` adds in scan
    order exactly like ``np.add.at``, so the result is bit-identical to
    the unbuffered scatter.  The composite index only depends on the
    (plan-static) gather index and row size, so it is memoised in
    ``meta`` and replays for free.
    """
    out_shape = (num_rows,) + values.shape[1:]
    if index.size == 0:
        return np.zeros(out_shape, dtype=values.dtype)
    if index.min() < 0:
        # bincount rejects negatives; normalise like numpy indexing does.
        index = index + (index < 0) * num_rows
    if values.ndim == 1:
        # bincount accumulates in float64; cast back to the working
        # dtype (a no-op copy-free view under the float64 backend).
        return np.bincount(
            index, weights=values, minlength=num_rows
        ).astype(values.dtype, copy=False)
    flat = values.reshape(index.shape[0], -1)
    d = flat.shape[1]
    cache = meta.get("_flat_index")
    if cache is None or cache[1] != d:
        composite = (index[:, None] * d + np.arange(d)).ravel()
        meta["_flat_index"] = cache = (composite, d)
    return np.bincount(
        cache[0], weights=flat.ravel(), minlength=num_rows * d
    ).astype(values.dtype, copy=False).reshape(out_shape)


# ======================================================================
# kernels: arithmetic
# ======================================================================
def _fw_add(meta, arrays):
    a, b = arrays
    return a + b, None


def _bw_add(meta, grad, arrays, out, saved):
    return grad, grad


def _fw_mul(meta, arrays):
    a, b = arrays
    return a * b, None


def _mul_operand_grad(grad: np.ndarray, other: np.ndarray,
                      operand_shape: tuple) -> np.ndarray:
    """``grad * other`` reduced to a row-broadcast operand's shape.

    When the operand was broadcast from ``(E, 1, ..., 1)`` (per-edge
    attention weights scaling full messages), fold the product and the
    trailing reduction into one row-dot pass instead of materialising
    the full product and summing it afterwards.
    """
    if (
        fused_enabled()
        and operand_shape != grad.shape
        and other.shape == grad.shape
        and len(operand_shape) == grad.ndim
        and operand_shape[0] == grad.shape[0]
        and all(s == 1 for s in operand_shape[1:])
        and grad.flags.c_contiguous
        and other.flags.c_contiguous
    ):
        rows = grad.shape[0]
        folded = np.einsum(
            "ij,ij->i", grad.reshape(rows, -1), other.reshape(rows, -1)
        )
        return folded.reshape(operand_shape)
    return grad * other


def _bw_mul(meta, grad, arrays, out, saved):
    a, b = arrays
    # ``needs`` marks which operands require grad at record time; the
    # skipped gradient would be discarded by the executor anyway, so
    # not computing it changes nothing but the wall clock.
    needs = meta["needs"] if meta else (True, True)
    ga = _mul_operand_grad(grad, b, a.shape) if needs[0] else None
    gb = _mul_operand_grad(grad, a, b.shape) if needs[1] else None
    return ga, gb


def _fw_div(meta, arrays):
    a, b = arrays
    return a / b, None


def _bw_div(meta, grad, arrays, out, saved):
    a, b = arrays
    needs = meta["needs"] if meta else (True, True)
    ga = grad / b if needs[0] else None
    gb = -grad * a / (b * b) if needs[1] else None
    return ga, gb


def _fw_power(meta, arrays):
    (a,) = arrays
    return a ** meta["exponent"], None


def _bw_power(meta, grad, arrays, out, saved):
    (a,) = arrays
    exponent = meta["exponent"]
    return (grad * exponent * a ** (exponent - 1.0),)


def _fw_matmul(meta, arrays):
    a, b = arrays
    return a @ b, None


def _bw_matmul(meta, grad, arrays, out, saved):
    return _matmul_vjp_arrays(grad, arrays[0], arrays[1])


# ======================================================================
# kernels: shape
# ======================================================================
def _fw_reshape(meta, arrays):
    return arrays[0].reshape(meta["shape"]), None


def _bw_reshape(meta, grad, arrays, out, saved):
    return (grad.reshape(meta["old_shape"]),)


def _fw_transpose(meta, arrays):
    return np.transpose(arrays[0], meta["axes"]), None


def _bw_transpose(meta, grad, arrays, out, saved):
    return (np.transpose(grad, meta["inverse"]),)


def _fw_sum(meta, arrays):
    return arrays[0].sum(axis=meta["axis"], keepdims=meta["keepdims"]), None


def _expand_reduced_grad(grad: np.ndarray, axis, keepdims: bool,
                         in_shape: tuple) -> np.ndarray:
    """Re-insert reduced axes so ``grad`` broadcasts against ``in_shape``."""
    g = np.asarray(grad)
    if axis is None:
        return g
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(ax % len(in_shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return g


def _bw_sum(meta, grad, arrays, out, saved):
    in_shape = meta["in_shape"]
    g = _expand_reduced_grad(grad, meta["axis"], meta["keepdims"], in_shape)
    return (np.broadcast_to(g, in_shape).copy(),)


def _fw_getitem(meta, arrays):
    return arrays[0][meta["index"]], None


def _bw_getitem_ref(meta, grad, arrays, out, saved):
    full = np.zeros(meta["in_shape"], dtype=np.asarray(grad).dtype)
    np.add.at(full, meta["index"], grad)
    return (full,)


def _bw_getitem(meta, grad, arrays, out, saved):
    index = meta["index"]
    if isinstance(index, np.ndarray):
        if index.dtype == np.bool_:
            # A boolean mask selects each row at most once.
            full = np.zeros(meta["in_shape"], dtype=np.asarray(grad).dtype)
            full[index] = grad
            return (full,)
        if index.ndim == 1 and np.issubdtype(index.dtype, np.integer):
            return (_scatter_rows(index, np.asarray(grad),
                                  meta["in_shape"][0], meta),)
    full = np.zeros(meta["in_shape"], dtype=np.asarray(grad).dtype)
    if isinstance(index, (int, np.integer, slice)) or (
        isinstance(index, tuple)
        and all(isinstance(i, (int, np.integer, slice)) for i in index)
    ):
        # Basic indexing never aliases, so plain assignment is exact.
        full[index] = grad
    else:
        np.add.at(full, index, grad)
    return (full,)


def _fw_concat(meta, arrays):
    return np.concatenate(arrays, axis=meta["axis"]), None


def _bw_concat(meta, grad, arrays, out, saved):
    return tuple(np.split(grad, meta["splits"], axis=meta["axis"]))


def _fw_stack(meta, arrays):
    return np.stack(arrays, axis=meta["axis"]), None


def _bw_stack(meta, grad, arrays, out, saved):
    axis = meta["axis"]
    parts = np.split(grad, len(arrays), axis=axis)
    return tuple(np.squeeze(p, axis=axis) for p in parts)


def _fw_pad_time(meta, arrays):
    (a,) = arrays
    pad_width = [(0, 0)] * a.ndim
    pad_width[-2] = (meta["left"], meta["right"])
    return np.pad(a, pad_width), None


def _bw_pad_time(meta, grad, arrays, out, saved):
    left, t = meta["left"], meta["t"]
    index = [slice(None)] * grad.ndim
    index[-2] = slice(left, left + t)
    return (grad[tuple(index)],)


# ======================================================================
# kernels: pointwise
# ======================================================================
def _fw_exp(meta, arrays):
    out = np.exp(arrays[0])
    return out, None


def _bw_exp(meta, grad, arrays, out, saved):
    return (grad * out,)


_LOG_EPS = 1e-12


def _fw_log(meta, arrays):
    # Guard non-positive inputs: clamp into [eps, inf) so the forward
    # yields a large-negative value instead of nan/-inf and the backward
    # stays finite.  (Numerics bugfix; applies in every mode.)
    safe = np.maximum(arrays[0], _LOG_EPS)
    return np.log(safe), safe


def _bw_log(meta, grad, arrays, out, saved):
    return (grad / saved,)


def _fw_sqrt(meta, arrays):
    return np.sqrt(arrays[0]), None


def _bw_sqrt(meta, grad, arrays, out, saved):
    return (grad * 0.5 / np.maximum(out, _denom_floor(out.dtype)),)


def _fw_abs(meta, arrays):
    return np.abs(arrays[0]), None


def _bw_abs(meta, grad, arrays, out, saved):
    return (grad * np.sign(arrays[0]),)


def _fw_relu(meta, arrays):
    (a,) = arrays
    mask = a > 0
    return a * mask, mask


def _bw_relu(meta, grad, arrays, out, saved):
    return (grad * saved,)


def _fw_leaky_relu(meta, arrays):
    (a,) = arrays
    # Typed scalars: np.where with two python floats would promote to
    # float64 regardless of the input dtype (bitwise no-op for float64).
    one = a.dtype.type(1.0)
    scale = np.where(a > 0, one, a.dtype.type(meta["negative_slope"]))
    return a * scale, scale


def _bw_leaky_relu(meta, grad, arrays, out, saved):
    return (grad * saved,)


def _fw_sigmoid(meta, arrays):
    (a,) = arrays
    z = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + z), z / (1.0 + z)), None


def _bw_sigmoid(meta, grad, arrays, out, saved):
    return (grad * out * (1.0 - out),)


def _fw_tanh(meta, arrays):
    return np.tanh(arrays[0]), None


def _bw_tanh(meta, grad, arrays, out, saved):
    return (grad * (1.0 - out * out),)


# ======================================================================
# kernels: softmax family
# ======================================================================
def _denom_floor(dtype) -> float:
    """Smallest safe softmax-denominator floor for a working dtype.

    The historical float64 constant ``1e-300`` is kept bit-for-bit for
    8-byte floats (the engine's bitwise gate); narrower dtypes get
    their own smallest positive normal instead, since ``1e-300``
    underflows to ``0.0`` in float32 and would stop guarding at all.
    """
    if dtype.itemsize >= 8:
        return 1e-300
    return float(np.finfo(dtype).tiny)


def _mask_like(meta, a: np.ndarray) -> np.ndarray:
    """The recorded additive mask, cast to the working dtype.

    Masks are recorded float64; under the float32 backend the cast is
    computed once and memoised under a kernel-private meta key.  For
    float64 inputs this returns the recorded array itself.
    """
    mask = meta["mask"]
    if mask.dtype == a.dtype:
        return mask
    cache = meta.get("_mask_cast")
    if cache is None or cache.dtype != a.dtype:
        cache = meta["_mask_cast"] = np.asarray(mask, dtype=a.dtype)
    return cache


def _fw_softmax(meta, arrays):
    (a,) = arrays
    axis = meta["axis"]
    row_max = a.max(axis=axis, keepdims=True)
    # Rows of -inf (fully suppressed logits) would otherwise turn into
    # nan via (-inf) - (-inf) and 0/0; guard both like masked_softmax.
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    ex = np.exp(a - row_max)
    denom = np.maximum(ex.sum(axis=axis, keepdims=True), _denom_floor(a.dtype))
    return ex / denom, None


def _bw_softmax(meta, grad, arrays, out, saved):
    axis = meta["axis"]
    dot = (grad * out).sum(axis=axis, keepdims=True)
    return (out * (grad - dot),)


def _fw_masked_softmax_ref(meta, arrays):
    (a,) = arrays
    mask, axis = _mask_like(meta, a), meta["axis"]
    scores = a + mask
    row_max = scores.max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    ex = np.exp(scores - row_max)
    ex = np.where(np.isfinite(scores), ex, 0.0)
    denom = ex.sum(axis=axis, keepdims=True)
    safe = np.maximum(denom, _denom_floor(a.dtype))
    return ex / safe, None


def _fw_masked_softmax(meta, arrays):
    (a,) = arrays
    mask, axis = _mask_like(meta, a), meta["axis"]
    scores = a + mask                       # only fresh allocation
    row_max = scores.max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    np.subtract(scores, row_max, out=scores)
    # Masked entries are -inf after the shift, and exp(-inf) == 0.0
    # exactly, so no explicit isfinite bookkeeping is needed (finite
    # logits assumed; the reference variant also zeroes nan scores).
    np.exp(scores, out=scores)
    denom = scores.sum(axis=axis, keepdims=True)
    np.maximum(denom, _denom_floor(a.dtype), out=denom)
    np.divide(scores, denom, out=scores)
    return scores, None


def _bw_masked_softmax_ref(meta, grad, arrays, out, saved):
    axis = meta["axis"]
    dot = (grad * out).sum(axis=axis, keepdims=True)
    return (out * (grad - dot),)


def _softmax_dot(grad: np.ndarray, out: np.ndarray, axis) -> np.ndarray:
    """``(grad * out).sum(axis, keepdims=True)`` without the product
    temporary — one einsum row-dot pass when reducing the last axis."""
    if axis in (-1, grad.ndim - 1) and grad.flags.c_contiguous \
            and out.flags.c_contiguous:
        n = grad.shape[-1]
        dot = np.einsum("ij,ij->i", grad.reshape(-1, n), out.reshape(-1, n))
        return dot.reshape(grad.shape[:-1] + (1,))
    return (grad * out).sum(axis=axis, keepdims=True)


def _bw_masked_softmax(meta, grad, arrays, out, saved):
    g = grad - _softmax_dot(grad, out, meta["axis"])
    np.multiply(g, out, out=g)
    return (g,)


def _fw_scaled_masked_softmax(meta, arrays):
    """``masked_softmax(a * scale)`` as one kernel (attention logits)."""
    (a,) = arrays
    axis = meta["axis"]
    scores = a * meta["scale"]
    scores += _mask_like(meta, a)
    row_max = scores.max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    np.subtract(scores, row_max, out=scores)
    np.exp(scores, out=scores)
    denom = scores.sum(axis=axis, keepdims=True)
    np.maximum(denom, _denom_floor(a.dtype), out=denom)
    np.divide(scores, denom, out=scores)
    return scores, None


def _bw_scaled_masked_softmax(meta, grad, arrays, out, saved):
    g = grad - _softmax_dot(grad, out, meta["axis"])
    np.multiply(g, out, out=g)
    g *= meta["scale"]
    return (g,)


# ======================================================================
# kernels: graph primitives
# ======================================================================
def _fw_gather_rows(meta, arrays):
    return arrays[0][meta["index"]], None


def _bw_gather_rows_ref(meta, grad, arrays, out, saved):
    full = np.zeros(meta["in_shape"], dtype=np.asarray(grad).dtype)
    np.add.at(full, meta["index"], grad)
    return (full,)


def _bw_gather_rows(meta, grad, arrays, out, saved):
    return (_scatter_rows(meta["index"], np.asarray(grad),
                          meta["in_shape"][0], meta),)


def _fw_segment_sum_ref(meta, arrays):
    (a,) = arrays
    out = np.zeros((meta["num_segments"],) + a.shape[1:], dtype=a.dtype)
    np.add.at(out, meta["ids"], a)
    return out, None


def _fw_segment_sum(meta, arrays):
    (a,) = arrays
    return _scatter_rows(meta["ids"], a, meta["num_segments"], meta), None


def _bw_segment_sum(meta, grad, arrays, out, saved):
    return (grad[meta["ids"]],)


def _fw_segment_max_gather(meta, arrays):
    """Per-edge stability shift for the segment softmax.

    Recomputed from the *current* scores on every execution so that plan
    replay stays exact, but treated as a constant by the VJP — softmax
    is shift-invariant, so the gradient through the max is exactly zero.
    """
    (scores,) = arrays
    ids, num_segments = meta["ids"], meta["num_segments"]
    seg_max = np.full(num_segments, -np.inf, dtype=scores.dtype)
    np.maximum.at(seg_max, ids, scores)
    seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    return seg_max[ids], None


def _bw_segment_max_gather(meta, grad, arrays, out, saved):
    return (None,)


# ======================================================================
# kernels: convolution
# ======================================================================
def _im2col(x: np.ndarray, width: int) -> np.ndarray:
    """Extract sliding windows: ``(B, T, C) -> (B, T - w + 1, w, C)``."""
    b, t, c = x.shape
    out_t = t - width + 1
    strides = (x.strides[0], x.strides[1], x.strides[1], x.strides[2])
    return np.lib.stride_tricks.as_strided(
        x, shape=(b, out_t, width, c), strides=strides, writeable=False
    )


def _fw_conv1d_ref(meta, arrays):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    left, right = meta["left"], meta["right"]
    b = x.shape[0]
    xp = np.pad(x, ((0, 0), (left, right), (0, 0)))
    cols = _im2col(xp, width)
    w2 = w.reshape(width * c_in, c_out)
    out_t = cols.shape[1]
    cols2 = cols.reshape(b, out_t, width * c_in)
    out = cols2 @ w2
    if len(arrays) == 3:
        out = out + arrays[2]
    return out, np.ascontiguousarray(cols2)


def _bw_conv1d_ref(meta, grad, arrays, out, saved):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    left = meta["left"]
    b, t, _ = x.shape
    out_t = grad.shape[1]
    w2 = w.reshape(width * c_in, c_out)
    cols2 = saved
    gw = np.einsum("btk,bto->ko", cols2, grad).reshape(width, c_in, c_out)
    gcols = grad @ w2.T
    gcols = gcols.reshape(b, out_t, width, c_in)
    gx_padded = np.zeros((b, t + left + meta["right"], c_in), dtype=grad.dtype)
    for offset in range(width):
        gx_padded[:, offset:offset + out_t, :] += gcols[:, :, offset, :]
    gx = gx_padded[:, left:left + t, :]
    if len(arrays) == 3:
        return gx, gw, grad.sum(axis=(0, 1))
    return gx, gw


def _fw_conv1d(meta, arrays):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    b, t, _ = x.shape
    if width == 1:
        # Pointwise conv == per-timestamp linear map: one big GEMM, no
        # padding, no window extraction, nothing saved.
        out = (x.reshape(b * t, c_in) @ w[0]).reshape(b, t, c_out)
        if len(arrays) == 3:
            out += arrays[2]
        return out, None
    left, right = meta["left"], meta["right"]
    # Manual zero-pad: np.pad's generic machinery is measurably slower.
    xp = np.zeros((b, t + left + right, c_in), dtype=x.dtype)
    xp[:, left:left + t, :] = x
    cols = _im2col(xp, width)
    out_t = cols.shape[1]
    cols2 = np.ascontiguousarray(cols).reshape(b, out_t, width * c_in)
    out = cols2 @ w.reshape(width * c_in, c_out)
    if len(arrays) == 3:
        out += arrays[2]
    return out, cols2


def _conv_input_grad(grad: np.ndarray, w: np.ndarray, t: int,
                     left: int) -> np.ndarray:
    """Gradient w.r.t. the conv input, as a flipped correlation GEMM.

    ``gx[m] = sum_j grad[m - j] @ w[j].T`` is itself a width-``w``
    convolution of the zero-padded output gradient with the kernel
    flipped along time and transposed — one im2col + one GEMM instead of
    a per-offset strided accumulation loop (~3x faster at this repo's
    shapes).
    """
    width, c_in, c_out = w.shape
    b, out_t, _ = grad.shape
    padded_len = out_t + 2 * (width - 1)
    gp = np.zeros((b, padded_len, c_out), dtype=grad.dtype)
    gp[:, width - 1:width - 1 + out_t, :] = grad
    gcols = np.ascontiguousarray(_im2col(gp, width))
    gcols = gcols.reshape(b * (out_t + width - 1), width * c_out)
    w_flip = w[::-1].transpose(0, 2, 1).reshape(width * c_out, c_in)
    gx_full = (gcols @ w_flip).reshape(b, out_t + width - 1, c_in)
    return gx_full[:, left:left + t, :]


def _bw_conv1d(meta, grad, arrays, out, saved):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    b, t, _ = x.shape
    if width == 1:
        g2 = grad.reshape(b * t, c_out)
        gw = (x.reshape(b * t, c_in).T @ g2).reshape(1, c_in, c_out)
        gx = (g2 @ w[0].T).reshape(b, t, c_in)
        if len(arrays) == 3:
            return gx, gw, grad.sum(axis=(0, 1))
        return gx, gw
    out_t = grad.shape[1]
    cols2 = saved
    k = width * c_in
    # GEMM instead of einsum, in the (small, huge-K) transposed
    # orientation BLAS handles best; the transpose copy is k x c_out.
    gw = (grad.reshape(b * out_t, c_out).T @ cols2.reshape(b * out_t, k))
    gw = np.ascontiguousarray(gw.T).reshape(width, c_in, c_out)
    gx = _conv_input_grad(grad, w, t, meta["left"])
    if len(arrays) == 3:
        return gx, gw, grad.sum(axis=(0, 1))
    return gx, gw


# ======================================================================
# kernels: fused
# ======================================================================
def _block_weight(ws: Sequence[np.ndarray], wmax: int, c_in: int) -> np.ndarray:
    """Stack causal kernels of mixed widths into one dense block weight.

    A width-``w`` kernel occupies the *last* ``w`` window offsets of the
    shared width-``wmax`` im2col (causal right-alignment); everything
    else stays zero, so one GEMM against the block computes every scale
    at once.
    """
    total = sum(w.shape[2] for w in ws)
    block = np.zeros((wmax, c_in, total), dtype=ws[0].dtype)
    col = 0
    for w in ws:
        width, _, c_out = w.shape
        block[wmax - width:, :, col:col + c_out] = w
        col += c_out
    return block.reshape(wmax * c_in, total)


def _fw_multi_conv1d(meta, arrays):
    """Fused multi-scale causal conv bank over one shared input.

    Replaces K separate ``conv1d`` ops (skinny GEMMs + K pad/im2col
    passes, e.g. TEL's capture/denoise groups) with one im2col and one
    wide GEMM; outputs are laid out exactly as the channel-concat of the
    per-scale convs.
    """
    n = meta["num_scales"]
    x = arrays[0]
    ws = arrays[1:1 + n]
    widths = tuple(w.shape[0] for w in ws)
    wmax = max(widths)
    b, t, c_in = x.shape
    left = wmax - 1
    xp = np.zeros((b, t + left, c_in), dtype=x.dtype)
    xp[:, left:, :] = x
    cols2 = np.ascontiguousarray(_im2col(xp, wmax)).reshape(b * t, wmax * c_in)
    block = _block_weight(ws, wmax, c_in)
    out2 = cols2 @ block
    if meta["bias"]:
        out2 += np.concatenate(arrays[1 + n:])
    return out2.reshape(b, t, out2.shape[1]), (cols2, block)


def _bw_multi_conv1d(meta, grad, arrays, out, saved):
    n = meta["num_scales"]
    x = arrays[0]
    ws = arrays[1:1 + n]
    b, t, c_in = x.shape
    cols2, block = saved
    total = grad.shape[2]
    g2 = grad.reshape(b * t, total)
    g_block = np.ascontiguousarray((g2.T @ cols2).T).reshape(-1, c_in, total)
    wmax = g_block.shape[0]
    grads = [None] * len(arrays)
    col = 0
    for i, w in enumerate(ws):
        width, _, c_out = w.shape
        # Rows outside a scale's block are gradients of structural
        # zeros, not of parameters — dropped by construction.
        grads[1 + i] = np.ascontiguousarray(
            g_block[wmax - width:, :, col:col + c_out]
        )
        col += c_out
    grads[0] = _conv_input_grad(
        grad, block.reshape(wmax, c_in, total), t, wmax - 1
    )
    if meta["bias"]:
        g_bias = g2.sum(axis=0)
        col = 0
        for i, w in enumerate(ws):
            c_out = w.shape[2]
            grads[1 + n + i] = g_bias[col:col + c_out]
            col += c_out
    return tuple(grads)


def _fw_linear(meta, arrays):
    x, w, b = arrays
    return (x @ w) + b, None


def _bw_linear(meta, grad, arrays, out, saved):
    gx, gw = _matmul_vjp_arrays(grad, arrays[0], arrays[1])
    return gx, gw, grad


def _make_linear_act(act_forward: Callable, act_grad: Callable):
    """Build forward/vjp for ``act(x @ w + b)``.

    ``act_grad(grad, out)`` must return the gradient at the
    pre-activation, element-for-element identical to the unfused
    activation VJP so fused and composed graphs stay bit-equal.
    """

    def forward(meta, arrays):
        x, w, b = arrays
        return act_forward((x @ w) + b), None

    def vjp(meta, grad, arrays, out, saved):
        gz = act_grad(grad, out)
        gx, gw = _matmul_vjp_arrays(gz, arrays[0], arrays[1])
        return gx, gw, gz

    return forward, vjp


def _relu_act(z: np.ndarray) -> np.ndarray:
    mask = z > 0
    return z * mask


def _sigmoid_act(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


_fw_linear_relu, _bw_linear_relu = _make_linear_act(
    _relu_act, lambda grad, out: grad * (out > 0)
)
_fw_linear_tanh, _bw_linear_tanh = _make_linear_act(
    np.tanh, lambda grad, out: grad * (1.0 - out * out)
)
_fw_linear_sigmoid, _bw_linear_sigmoid = _make_linear_act(
    _sigmoid_act, lambda grad, out: grad * out * (1.0 - out)
)


def _fw_mul_sum(meta, arrays):
    a, b = arrays
    return (a * b).sum(axis=meta["axis"], keepdims=meta["keepdims"]), None


def _bw_mul_sum(meta, grad, arrays, out, saved):
    a, b = arrays
    in_shape = meta["in_shape"]
    g = _expand_reduced_grad(grad, meta["axis"], meta["keepdims"], in_shape)
    # Broadcast *view* — the composed sum-VJP would materialise a copy.
    g = np.broadcast_to(g, in_shape)
    return g * b, g * a


# ======================================================================
# registry population
# ======================================================================
register_kernel("add", _fw_add, _bw_add)
register_kernel("mul", _fw_mul, _bw_mul)
register_kernel("div", _fw_div, _bw_div)
register_kernel("power", _fw_power, _bw_power)
register_kernel("matmul", _fw_matmul, _bw_matmul)
register_kernel("reshape", _fw_reshape, _bw_reshape)
register_kernel("transpose", _fw_transpose, _bw_transpose)
register_kernel("sum", _fw_sum, _bw_sum)
register_kernel("getitem", _fw_getitem, _bw_getitem, ref_vjp=_bw_getitem_ref)
register_kernel("concat", _fw_concat, _bw_concat)
register_kernel("stack", _fw_stack, _bw_stack)
register_kernel("pad_time", _fw_pad_time, _bw_pad_time)
register_kernel("exp", _fw_exp, _bw_exp)
register_kernel("log", _fw_log, _bw_log)
register_kernel("sqrt", _fw_sqrt, _bw_sqrt)
register_kernel("abs", _fw_abs, _bw_abs)
register_kernel("relu", _fw_relu, _bw_relu)
register_kernel("leaky_relu", _fw_leaky_relu, _bw_leaky_relu)
register_kernel("sigmoid", _fw_sigmoid, _bw_sigmoid)
register_kernel("tanh", _fw_tanh, _bw_tanh)
register_kernel("softmax", _fw_softmax, _bw_softmax)
register_kernel("masked_softmax", _fw_masked_softmax, _bw_masked_softmax,
                ref_forward=_fw_masked_softmax_ref,
                ref_vjp=_bw_masked_softmax_ref)
register_kernel("scaled_masked_softmax", _fw_scaled_masked_softmax,
                _bw_scaled_masked_softmax)
register_kernel("gather_rows", _fw_gather_rows, _bw_gather_rows,
                ref_vjp=_bw_gather_rows_ref)
register_kernel("segment_sum", _fw_segment_sum, _bw_segment_sum,
                ref_forward=_fw_segment_sum_ref)
register_kernel("segment_max_gather", _fw_segment_max_gather,
                _bw_segment_max_gather)
register_kernel("conv1d", _fw_conv1d, _bw_conv1d,
                ref_forward=_fw_conv1d_ref, ref_vjp=_bw_conv1d_ref)
register_kernel("multi_conv1d", _fw_multi_conv1d, _bw_multi_conv1d)
register_kernel("linear", _fw_linear, _bw_linear)
register_kernel("linear_relu", _fw_linear_relu, _bw_linear_relu)
register_kernel("linear_tanh", _fw_linear_tanh, _bw_linear_tanh)
register_kernel("linear_sigmoid", _fw_linear_sigmoid, _bw_linear_sigmoid)
register_kernel("mul_sum", _fw_mul_sum, _bw_mul_sum)

#: fused ops reachable only through :func:`match_fusion` or the fused
#: entry points in :mod:`repro.nn.functional` (``linear``, ``conv_bank``).
FUSED_OPS = ("linear", "linear_relu", "linear_tanh", "linear_sigmoid",
             "mul_sum", "multi_conv1d", "scaled_masked_softmax")

_ACT_FUSION = {"relu": "linear_relu", "tanh": "linear_tanh",
               "sigmoid": "linear_sigmoid"}


def _is_recorded(t: object, op: str) -> bool:
    return getattr(t, "_op", None) == op and getattr(t, "requires_grad", False)


def match_fusion(op: str, inputs: Sequence, meta: Optional[dict]):
    """Rewrite an op being recorded into a fused node, or return ``None``.

    The rewrite reuses the producer's already-computed forward value, so
    fusion never recomputes work at record time; replay computes the
    fused kernel directly (the bypassed producer is pruned from the
    plan unless another consumer needs it).

    Returns ``(op, inputs, meta, out_data, saved)``.
    """
    if op == "add" and len(inputs) == 2:
        for i in (0, 1):
            prod, other = inputs[i], inputs[1 - i]
            if _is_recorded(prod, "matmul") and prod is not other:
                x, w = prod._parents
                out = inputs[0].data + inputs[1].data
                _bump("fused_linear")
                return "linear", (x, w, other), {}, out, None
    elif op in _ACT_FUSION and len(inputs) == 1:
        prod = inputs[0]
        if _is_recorded(prod, "linear"):
            fused = _ACT_FUSION[op]
            if op == "relu":
                out = _relu_act(prod.data)
            elif op == "tanh":
                out = np.tanh(prod.data)
            else:
                out = _sigmoid_act(prod.data)
            _bump("fused_" + fused)
            return fused, prod._parents, {}, out, None
    elif op == "sum" and len(inputs) == 1:
        prod = inputs[0]
        if _is_recorded(prod, "mul"):
            new_meta = dict(meta)
            new_meta["in_shape"] = prod.data.shape
            out = prod.data.sum(axis=meta["axis"], keepdims=meta["keepdims"])
            _bump("fused_mul_sum")
            return "mul_sum", prod._parents, new_meta, out, None
    elif op == "masked_softmax" and len(inputs) == 1:
        prod = inputs[0]
        if _is_recorded(prod, "mul"):
            for raw, scale in (prod._parents, prod._parents[::-1]):
                if (
                    raw.requires_grad
                    and not scale.requires_grad
                    and scale.data.size == 1
                ):
                    new_meta = {"mask": meta["mask"], "axis": meta["axis"],
                                "scale": float(scale.data)}
                    out, _ = _fw_masked_softmax(meta, (prod.data,))
                    _bump("fused_scaled_masked_softmax")
                    return "scaled_masked_softmax", (raw,), new_meta, out, None
    return None


# ======================================================================
# tracing
# ======================================================================
class Tape:
    """Creation-ordered record of one traced forward pass."""

    __slots__ = ("nodes", "dynamic", "reasons")

    def __init__(self) -> None:
        self.nodes: List = []
        self.dynamic = False
        self.reasons: List[str] = []


_TAPES: List[Tape] = []


def record_node(tensor: object) -> None:
    """Called by the dispatcher for every op node while tracing."""
    if _TAPES:
        _TAPES[-1].nodes.append(tensor)


def tracing() -> bool:
    """Whether a trace is currently being recorded."""
    return bool(_TAPES)


def mark_dynamic(reason: str) -> None:
    """Flag the active trace as not replay-safe (value-dependent
    constants such as dropout masks or Huber's branch mask)."""
    if _TAPES:
        tape = _TAPES[-1]
        tape.dynamic = True
        if reason not in tape.reasons:
            tape.reasons.append(reason)


@contextmanager
def trace():
    """Record every op node created in the block onto a fresh tape."""
    tape = Tape()
    _TAPES.append(tape)
    try:
        yield tape
    finally:
        _TAPES.pop()


# ======================================================================
# plans
# ======================================================================
class PlanError(RuntimeError):
    """The traced graph cannot be compiled into a static plan."""


class _Step:
    """One scheduled op: slot-indexed inputs/output plus its kernel."""

    __slots__ = ("op", "ins", "out", "forward", "vjp")

    def __init__(self, op: str, ins: Tuple[int, ...], out: int) -> None:
        self.op = op
        self.ins = ins
        self.out = out
        kernel = KERNELS[op]
        self.forward = kernel.forward
        self.vjp = kernel.vjp


def _meta_fingerprint(meta: Optional[dict]):
    if not meta:
        return None
    parts = []
    for key in sorted(meta):
        if key.startswith("_"):
            continue  # kernel-private caches (e.g. scatter layouts)
        value = meta[key]
        if isinstance(value, np.ndarray):
            parts.append((key, "nd", value.shape, str(value.dtype)))
        elif isinstance(value, (tuple, list)):
            parts.append((key, "seq", len(value)))
        elif isinstance(value, slice):
            parts.append((key, "slice", value.start, value.stop, value.step))
        else:
            parts.append((key, value))
    return tuple(parts)


class PlanStructure:
    """The architecture-level half of a plan: slots, schedule, signature.

    Cached module-wide keyed by :attr:`signature`, so two traces of the
    same model architecture (e.g. every epoch over one training batch,
    or every shard with identical shapes) share one topological order.
    """

    __slots__ = ("steps", "num_slots", "param_slots", "const_slots",
                 "root_slot", "slot_shapes", "needs_grad", "signature")

    def __init__(self, steps: List[_Step], num_slots: int,
                 param_slots: Tuple[int, ...], const_slots: Tuple[int, ...],
                 root_slot: int, slot_shapes: Tuple[tuple, ...],
                 signature) -> None:
        self.steps = steps
        self.num_slots = num_slots
        self.param_slots = param_slots
        self.const_slots = const_slots
        self.root_slot = root_slot
        self.slot_shapes = slot_shapes
        self.signature = signature
        needs = [False] * num_slots
        for slot in param_slots:
            needs[slot] = True
        for step in steps:
            needs[step.out] = any(needs[i] for i in step.ins)
        self.needs_grad = tuple(needs)


_STRUCTURES: Dict[object, PlanStructure] = {}


def structure_cache_info() -> Dict[str, int]:
    """Size of the shared structure cache (for tests / reporting)."""
    return {"structures": len(_STRUCTURES)}


def _prune_dead_nodes(root, recorded_nodes: Sequence) -> Tuple[Dict[int, object], List]:
    """Dead-node pruning: keep only ancestors of the loss root.

    Returns ``(ancestors, op_nodes)`` where ``ancestors`` maps
    ``id(node) -> node`` for every node the root depends on and
    ``op_nodes`` is the recorded tape filtered to those ancestors (in
    creation order, which is a topological order by construction).
    """
    ancestors: Dict[int, object] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        key = id(node)
        if key in ancestors:
            continue
        ancestors[key] = node
        stack.extend(node._parents)
    op_nodes = [t for t in recorded_nodes if id(t) in ancestors]
    return ancestors, op_nodes


def compile_plan(root, tape: Tape) -> "ExecutionPlan":
    """Compile a traced scalar loss into an :class:`ExecutionPlan`.

    Lowering order: dead-node pruning → slot/schedule construction →
    structure-cache lookup → plan binding against the *active backend*.

    Raises :class:`PlanError` when the graph is not statically
    replayable (dynamic ops, ancestors created outside the trace, or a
    non-scalar root).
    """
    if tape.dynamic:
        raise PlanError("dynamic trace: " + ", ".join(tape.reasons))
    if root.data.size != 1:
        raise PlanError("plans require a scalar loss root")
    ancestors, op_nodes = _prune_dead_nodes(root, tape.nodes)
    recorded = {id(t) for t in op_nodes}
    slot_of: Dict[int, int] = {}
    leaves: List = []
    for node in ancestors.values():
        if node._parents:
            if id(node) not in recorded:
                raise PlanError(
                    "loss depends on an op recorded outside the trace"
                )
        else:
            slot_of[id(node)] = len(leaves)
            leaves.append(node)
    steps: List[_Step] = []
    metas: List[Optional[dict]] = []
    next_slot = len(leaves)
    for node in op_nodes:
        if node._op is None or node._backward_fn is not None:
            raise PlanError(
                f"node {node!r} uses a closure backward; only registry "
                "kernels are replayable"
            )
        ins = tuple(slot_of[id(p)] for p in node._parents)
        slot_of[id(node)] = next_slot
        steps.append(_Step(node._op, ins, next_slot))
        metas.append(node._meta)
        next_slot += 1
    slot_shapes = tuple(
        [leaf.data.shape for leaf in leaves] + [n.data.shape for n in op_nodes]
    )
    signature = (
        tuple(
            (s.op, s.ins, slot_shapes[s.out], _meta_fingerprint(m))
            for s, m in zip(steps, metas)
        ),
        tuple(slot_shapes[:len(leaves)]),
        tuple(i for i, leaf in enumerate(leaves) if leaf.requires_grad),
        slot_of[id(root)],
    )
    structure = _STRUCTURES.get(signature)
    if structure is None:
        structure = PlanStructure(
            steps=steps,
            num_slots=next_slot,
            param_slots=signature[2],
            const_slots=tuple(
                i for i, leaf in enumerate(leaves) if not leaf.requires_grad
            ),
            root_slot=slot_of[id(root)],
            slot_shapes=slot_shapes,
            signature=signature,
        )
        _STRUCTURES[signature] = structure
        _bump("plan_structures_built")
    else:
        _bump("plan_structure_cache_hits")
    _bump("plans_compiled")
    return ExecutionPlan(structure, leaves, metas)


class ExecutionPlan:
    """A :class:`PlanStructure` bound to leaves, a backend, and buffers.

    ``run()`` replays forward and backward as flat loops over numpy
    arrays.  Parameter leaves are re-read through their ``Tensor``
    (``load_state_dict`` replaces ``.data``), constants are captured
    array references, and per-slot gradient buffers are allocated once
    and reused across steps.  The backend active at compile time fixes
    the plan's dtype.
    """

    __slots__ = ("structure", "metas", "backend",
                 "_params", "_consts", "_values",
                 "_saved", "_grads", "_unbroadcast", "_seed", "_dtype",
                 "_kstats", "_fw_costs", "_bw_costs",
                 "_profiled_replays", "_profiled_seconds")

    def __init__(self, structure: PlanStructure, leaves: List,
                 metas: List[Optional[dict]]) -> None:
        from .tensor import unbroadcast

        self.structure = structure
        self.metas = metas
        self.backend = active_backend()
        self._dtype = self.backend.dtype
        self._unbroadcast = unbroadcast
        self._params = [
            (structure.param_slots[j], leaf)
            for j, leaf in enumerate(
                [l for l in leaves if l.requires_grad]
            )
        ]
        self._consts = [
            (slot, leaf.data)
            for slot, leaf in zip(
                structure.const_slots, [l for l in leaves if not l.requires_grad]
            )
        ]
        self._values: List[Optional[np.ndarray]] = [None] * structure.num_slots
        for slot, data in self._consts:
            self._values[slot] = data
        self._saved: List[object] = [None] * len(structure.steps)
        self._grads: List[Optional[np.ndarray]] = [None] * structure.num_slots
        self._seed = np.ones(structure.slot_shapes[structure.root_slot],
                             dtype=self._dtype)
        # profiling plane (populated only while a profiler is installed)
        self._kstats: Dict[Tuple[str, str], List[float]] = {}
        self._fw_costs: Optional[List[Optional[Tuple[float, float]]]] = None
        self._bw_costs: Optional[List[Optional[Tuple[float, float]]]] = None
        self._profiled_replays = 0
        self._profiled_seconds = 0.0

    # ------------------------------------------------------------------
    def check_bindings(self) -> bool:
        """Whether the bound leaves still match the recorded shapes."""
        shapes = self.structure.slot_shapes
        for slot, param in self._params:
            if param.data.shape != shapes[slot]:
                return False
        for slot, data in self._consts:
            if data.shape != shapes[slot]:
                return False
        return True

    # ------------------------------------------------------------------
    def forward(self) -> float:
        """Replay the forward schedule; returns the scalar loss."""
        profiler = _PROFILER[0]
        if profiler is not None:
            return self._forward_profiled(profiler)
        values = self._values
        saved = self._saved
        metas = self.metas
        for slot, param in self._params:
            values[slot] = param.data
        for i, step in enumerate(self.structure.steps):
            arrays = tuple(values[j] for j in step.ins)
            out, sv = step.forward(metas[i], arrays)
            values[step.out] = out
            saved[i] = sv
        return float(values[self.structure.root_slot])

    def _accumulate(self, op: str, phase: str, seconds: float,
                    flops: float, bytes_moved: float) -> None:
        row = self._kstats.get((op, phase))
        if row is None:
            row = self._kstats[(op, phase)] = [0.0, 0.0, 0.0, 0.0]
        row[0] += 1.0
        row[1] += seconds
        row[2] += flops
        row[3] += bytes_moved

    def _forward_profiled(self, profiler) -> float:
        """The forward replay with per-kernel timing and cost attribution.

        A separate method so the unprofiled loop stays untouched — with
        no profiler installed, ``forward()`` pays exactly one list read.
        Costs are estimated from the plan's static slot shapes once and
        cached, so steady-state profiled replays only add clock reads.
        """
        from ..obs.profiling import estimate_cost

        structure = self.structure
        values = self._values
        saved = self._saved
        for slot, param in self._params:
            values[slot] = param.data
        costs = self._fw_costs
        if costs is None:
            costs = self._fw_costs = [None] * len(structure.steps)
        clock = profiler.clock
        shapes = structure.slot_shapes
        metas = self.metas
        # Boundary-to-boundary timing: one clock read per step, each
        # step's elapsed spanning everything since the previous boundary
        # (kernel, bookkeeping, cost lookup) — so the per-kernel rows
        # account for the replay wall time structurally, not modulo the
        # profiler's own dict updates.
        replay_start = clock()
        boundary = replay_start
        for i, step in enumerate(structure.steps):
            arrays = tuple(values[j] for j in step.ins)
            out, sv = step.forward(metas[i], arrays)
            values[step.out] = out
            saved[i] = sv
            cost = costs[i]
            if cost is None:
                cost = costs[i] = estimate_cost(
                    step.op, tuple(shapes[j] for j in step.ins),
                    shapes[step.out], metas[i], phase="forward",
                    itemsize=self._dtype.itemsize,
                )
            now = clock()
            elapsed = now - boundary
            boundary = now
            profiler.record(step.op, "forward", elapsed, cost[0], cost[1])
            self._accumulate(step.op, "forward", elapsed, cost[0], cost[1])
        replay_seconds = clock() - replay_start
        self._profiled_replays += 1
        self._profiled_seconds += replay_seconds
        profiler.record_replay(replay_seconds)
        _bump("profiled_replays")
        return float(values[structure.root_slot])

    def backward(self) -> None:
        """Replay the VJP schedule over per-slot gradient references.

        Accumulation mirrors the eager walk exactly — gradients are
        passed by reference and combined with out-of-place additions in
        the same order — so planned and eager parameter gradients are
        bit-for-bit identical.
        """
        profiler = _PROFILER[0]
        if profiler is not None:
            self._backward_profiled(profiler)
            return
        structure = self.structure
        values = self._values
        grads = self._grads
        needs = structure.needs_grad
        unbroadcast = self._unbroadcast
        for i in range(structure.num_slots):
            grads[i] = None
        grads[structure.root_slot] = self._seed
        steps = structure.steps
        metas = self.metas
        saved = self._saved
        for i in range(len(steps) - 1, -1, -1):
            step = steps[i]
            grad = grads[step.out]
            if grad is None:
                continue
            grads[step.out] = None
            arrays = tuple(values[j] for j in step.ins)
            pgrads = step.vjp(metas[i], grad, arrays, values[step.out], saved[i])
            for j, pgrad in zip(step.ins, pgrads):
                if pgrad is None or not needs[j]:
                    continue
                pgrad = unbroadcast(
                    np.asarray(pgrad, dtype=self._dtype),
                    structure.slot_shapes[j],
                )
                if grads[j] is None:
                    grads[j] = pgrad
                else:
                    grads[j] = grads[j] + pgrad
        for slot, param in self._params:
            pgrad = grads[slot]
            grads[slot] = None
            if pgrad is None:
                continue
            if param.grad is None:
                param.grad = pgrad.copy()
            else:
                param.grad = param.grad + pgrad
        self._release()

    def _backward_profiled(self, profiler) -> None:
        """The VJP replay with per-kernel timing (same accumulation order).

        Each step's measurement covers its VJP call *plus* the
        unbroadcast/accumulate work its gradients trigger — that is the
        true cost of executing this op's backward, and it keeps the
        per-kernel timings accounting for ≥95% of the replay wall time.
        """
        from ..obs.profiling import estimate_cost

        structure = self.structure
        values = self._values
        grads = self._grads
        needs = structure.needs_grad
        unbroadcast = self._unbroadcast
        for i in range(structure.num_slots):
            grads[i] = None
        grads[structure.root_slot] = self._seed
        steps = structure.steps
        metas = self.metas
        saved = self._saved
        costs = self._bw_costs
        if costs is None:
            costs = self._bw_costs = [None] * len(steps)
        clock = profiler.clock
        shapes = structure.slot_shapes
        # Same boundary-to-boundary discipline as the forward replay;
        # skipped (dead-gradient) steps fold into the next live step's
        # elapsed, so the rows still sum to the replay wall time.
        replay_start = clock()
        boundary = replay_start
        for i in range(len(steps) - 1, -1, -1):
            step = steps[i]
            grad = grads[step.out]
            if grad is None:
                continue
            grads[step.out] = None
            arrays = tuple(values[j] for j in step.ins)
            pgrads = step.vjp(metas[i], grad, arrays, values[step.out], saved[i])
            for j, pgrad in zip(step.ins, pgrads):
                if pgrad is None or not needs[j]:
                    continue
                pgrad = unbroadcast(
                    np.asarray(pgrad, dtype=self._dtype),
                    shapes[j],
                )
                if grads[j] is None:
                    grads[j] = pgrad
                else:
                    grads[j] = grads[j] + pgrad
            cost = costs[i]
            if cost is None:
                cost = costs[i] = estimate_cost(
                    step.op, tuple(shapes[j] for j in step.ins),
                    shapes[step.out], metas[i], phase="backward",
                    itemsize=self._dtype.itemsize,
                )
            now = clock()
            elapsed = now - boundary
            boundary = now
            profiler.record(step.op, "backward", elapsed, cost[0], cost[1])
            self._accumulate(step.op, "backward", elapsed, cost[0], cost[1])
        for slot, param in self._params:
            pgrad = grads[slot]
            grads[slot] = None
            if pgrad is None:
                continue
            if param.grad is None:
                param.grad = pgrad.copy()
            else:
                param.grad = param.grad + pgrad
        replay_seconds = clock() - replay_start
        self._profiled_seconds += replay_seconds
        profiler.record_replay(replay_seconds, count=0)
        self._release()

    def _release(self) -> None:
        """Drop activations / saved forward buffers after a step.

        Trainers hold one plan per train batch for their lifetime;
        without this, every *cold* plan would pin a full set of
        activations (including im2col buffers) between steps.  Constant
        leaf bindings are kept — they are references to long-lived batch
        arrays, not copies.
        """
        values = self._values
        grads = self._grads
        for step in self.structure.steps:
            values[step.out] = None
            grads[step.out] = None
        for slot, _ in self._params:
            values[slot] = None
            grads[slot] = None
        saved = self._saved
        for i in range(len(saved)):
            saved[i] = None

    def run(self) -> float:
        """One full planned training step: forward + backward."""
        ensure_allocator_tuned()
        _bump("plan_replays")
        loss = self.forward()
        self.backward()
        return loss


# ======================================================================
# compiled losses
# ======================================================================
class CompiledLoss:
    """Trace-once / replay-many wrapper around a scalar loss closure.

    ``fn`` must build the loss from stable inputs (same batch arrays,
    same masks) on every call; parameters may change freely.  The first
    ``run()`` traces eagerly and compiles a plan; later runs replay it.
    If the trace is dynamic (dropout, value-dependent constants) or
    compilation fails, every run transparently falls back to fused-eager
    execution — correctness never depends on replayability.

    After ``run()``, ``param.grad`` is populated exactly as
    ``loss.backward()`` would have (accumulating into pre-existing
    gradients), and the scalar loss value is returned.
    """

    __slots__ = ("_fn", "_plan", "_dynamic", "_reason")

    def __init__(self, fn: Callable[[], object]) -> None:
        self._fn = fn
        self._plan: Optional[ExecutionPlan] = None
        self._dynamic = False
        self._reason = ""

    @property
    def fallback_reason(self) -> str:
        """Why the loss is running eagerly ('' when planned)."""
        return self._reason

    def profile_report(self, top: Optional[int] = None) -> Dict[str, object]:
        """Per-kernel profile of this loss's profiled plan replays.

        Populated while a :class:`repro.obs.profiling.KernelProfiler`
        is installed (see :func:`repro.obs.profiling.profile_kernels`).
        Returns the :meth:`KernelProfiler.report
        <repro.obs.profiling.KernelProfiler.report>` schema — kernels
        sorted by cumulative time with calls/seconds/flops/bytes,
        totals, and ``coverage`` (fraction of measured replay wall time
        the kernel timings account for) — plus ``planned`` and
        ``fallback_reason`` for losses that never compiled.
        """
        from ..obs.profiling import KernelProfiler

        scratch = KernelProfiler()
        plan = self._plan
        if plan is not None:
            scratch.stats = {key: list(row)
                             for key, row in plan._kstats.items()}
            scratch.replays = plan._profiled_replays
            scratch.replay_seconds = plan._profiled_seconds
        report = scratch.report(top)
        report["planned"] = plan is not None
        report["fallback_reason"] = self._reason
        return report

    def _eager(self) -> float:
        loss = self._fn()
        loss.backward()
        return float(loss.data)

    def run(self) -> float:
        """Execute one step; returns the loss, populates ``.grad``."""
        if self._dynamic or not fused_enabled():
            ensure_allocator_tuned()
            _bump("compiled_eager_steps")
            with _obs_span("engine.step"):
                return self._eager()
        plan = self._plan
        if plan is not None:
            if plan.check_bindings():
                ensure_allocator_tuned()
                with _obs_span("engine.step"):
                    loss = plan.forward()
                    plan.backward()
                _bump("plan_replays")
                return loss
            # Shapes moved under us: retrace next run.
            self._plan = None
            _bump("plan_rebinds")
        with trace() as tape:
            loss = self._fn()
        try:
            self._plan = compile_plan(loss, tape)
        except PlanError as error:
            self._dynamic = True
            self._reason = str(error)
            _bump("plan_fallbacks")
        loss.backward()
        return float(loss.data)
