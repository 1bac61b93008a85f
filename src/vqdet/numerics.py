"""Dense float64 tensors with reverse-mode differentiation on a recorded tape.

Every differentiable quantity in the detector (queries, features, latent
means/log-variances, logits, losses) lives in a :class:`Tensor`. Forward
operations record their inputs and a vector-Jacobian closure; calling
:func:`backward` on a scalar loss walks the recorded graph once in reverse
topological order and accumulates gradients into the ``requires_grad``
leaves on the path, such as parameters. A graph is walked once: an op's
closure is dropped as soon as it has run, which frees an attention call's
exponentials mid-walk, and a later walk through that op raises
:class:`DoubleBackwardError`; node values and parents stay. A non-finite
loss stops :func:`backward` with an error naming the first non-finite
tensor, which :func:`first_non_finite` finds by the same walk. A VJP may
give a parent a :class:`RowGrad`, which :func:`backward` adds in place
(``acc[rows] += values``, into zeros the first time): the dense sum up to
the sign of its zeros. A leaf's gradient starts as ``g + 0.0``, so every
zero a leaf receives is +0.0.

Inside :func:`no_grad` the same ops compute the same values but record
nothing: inference and finite-difference probes, which need only values,
keep no graph alive. The switch is per thread: ops that another thread runs
meanwhile are recorded as usual.

The kernels follow three rules. No ``np.where`` over a data-dependent mask
on a large array: over random signs it mispredicts a branch per entry, so
:func:`relu` is ``np.maximum`` and an add of 0.0. Attention normalises after
the value product: the (R, dh) product is scaled by the reciprocal row sums
instead of the (R, T) weights. A value that only the backward pass reads is
computed in the VJP, not in the forward op, so untaped calls do not pay for
it.

The module holds the generic operations the detector runs; a weighted sum
of scalar losses is one node. The set-prediction objective is not generic:
its one op, weights and kernels live in :mod:`losses`, which records its
node with :func:`_node`. Reference ops that only the tests compose (matmul,
softmax, softplus, row and column slices, elementwise min/max, the loss
terms as separate nodes and the like) live beside the oracles that use
them, in ``tests/oracles.py``.

The tape is rebuilt from scratch each training step. At most two threads
run a step: the caller, which alone records and walks the tape and writes
gradients, and, where the process may use two CPUs, one worker thread,
started by its first job, that runs heads of the largest attention calls
(:func:`multihead_attention`). Its job is a :class:`concurrent.futures.Future`
that the call cancels while it is still pending, and otherwise waits for. The
worker only does arithmetic on the arrays of the call that submitted it, and
that call does not return, normally or by raising, while its job is queued or
running, so no value depends on which thread computed it. Data is always
float64; there is no broadcasting beyond the two cases the model needs (same
shape, and a scalar operand); ``linear`` adds its own bias. Every affine layer
is a ``(w, b)`` pair that :meth:`ParameterStore.linear` declares; a
checkpoint is an ``.npz`` archive of float64 arrays keyed by parameter name.
"""

from __future__ import annotations

import io
import math
import os
import queue
import threading
import tokenize
import zipfile
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateMaskError(ValueError):
    """A softmax row has no allowed column."""


class DoubleBackwardError(RuntimeError):
    """backward() reached an op it had already walked; rebuild the graph."""


class Tensor:
    """A dense float64 array with an optional gradient slot.

    ``data`` is stored row-major. Only a leaf, a tensor that no operation
    produced, keeps a gradient: its ``grad`` stays ``None`` until a backward
    pass reaches it, then has exactly the shape of ``data`` and accumulates
    across backward calls until explicitly cleared. Gradients of
    intermediate results live only for the duration of :func:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Arithmetic. Shapes must match exactly, except that any tensor accepts
    # a 0-d tensor or a python scalar.

    def __add__(self, other):
        return _add(self, _as_tensor(other))

    def __sub__(self, other):
        return _add(self, _neg(_as_tensor(other)))

    def __mul__(self, other):
        return _mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return _mul(self, _as_tensor(other))

    def __neg__(self):
        return _neg(self)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


class _Recording(threading.local):
    on = True  # cleared inside no_grad(), for the calling thread only


_recording = _Recording()


@contextmanager
def no_grad() -> Iterator[None]:
    """Run the enclosed ops as plain array arithmetic, recording no tape.

    Every op output inside the block has ``requires_grad`` False, no parents
    and no VJP closure, so it keeps no input alive. Values are bitwise those
    of the taped ops. The previous state is restored on exit, also when the
    block raises, so blocks nest. Other threads keep recording.
    """
    saved, _recording.on = _recording.on, False
    try:
        yield
    finally:
        _recording.on = saved


class RowGrad(NamedTuple):
    """A gradient that is ``values`` at the unique ``rows`` (int, slice or index array), else 0."""
    rows: int | slice | np.ndarray
    values: np.ndarray


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _recording.on and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _reduce_to(shape: tuple[int, ...], g: np.ndarray) -> np.ndarray:
    """Sum a gradient down to ``shape``: itself, or a scalar operand's total."""
    return g if g.shape == shape else np.asarray(g.sum())


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    sa, sb = a.data.shape, b.data.shape
    if not (sa == sb or sa == () or sb == ()):
        raise ShapeError(f"{op}: incompatible shapes {sa} and {sb}")


def _add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = a.data + b.data

    def vjp(g):
        return (_reduce_to(a.data.shape, g) if a.requires_grad else None,
                _reduce_to(b.data.shape, g) if b.requires_grad else None)

    return _node(out, (a, b), vjp)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out = a.data * b.data

    def vjp(g):
        return (_reduce_to(a.data.shape, g * b.data) if a.requires_grad else None,
                _reduce_to(b.data.shape, g * a.data) if b.requires_grad else None)

    return _node(out, (a, b), vjp)


def _neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` with x (r, Din), w (Din, Dout), b (Dout,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.data.shape} and {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear: bias shape {b.data.shape} vs width {w.data.shape[1]}")
    out = x.data @ w.data
    out += b.data

    def vjp(g):
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _node(out, (x, w, b), vjp)


def relu(a: Tensor) -> Tensor:
    """max(x, 0) that passes NaN on; no gradient at exactly 0."""
    out = np.maximum(a.data, 0.0)
    out += 0.0  # the sign of np.maximum(-0.0, 0.0) is the build's choice; -0.0 + 0.0 is +0.0
    return _node(out, (a,), lambda g: (g * (a.data > 0.0),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Stable on both tails.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Elementwise clip; gradient is zero outside [lo, hi]."""
    return _node(np.clip(a.data, lo, hi), (a,),
                 lambda g: (g * ((a.data >= lo) & (a.data <= hi)),))


# An attention call whose heads each form at least this many logits runs them
# one at a time, shared between the caller and _worker.
SPLIT_LOGITS = 256 * 256


class _Job(Future):
    """A call queued for the worker. Whichever of ``run`` and ``cancel`` first takes
    the Future out of its pending state decides whether the call runs; either way
    the job then drops the call, so a settled job keeps no array alive."""

    def __init__(self, fn: Callable, args: tuple):
        super().__init__()
        self.call = fn, args

    def run(self) -> None:
        if self.set_running_or_notify_cancel():
            (fn, args), self.call = self.call, None
            try:
                value = fn(*args)
            except BaseException as exc:
                del fn, args  # exc's traceback holds this frame
                self.set_exception(exc)
            else:
                self.set_result(value)

    def cancel(self) -> bool:
        """True, and the call never runs and is dropped, if it had not started."""
        if not super().cancel():
            return False
        self.call = None
        return True


class _Worker:
    """One daemon thread, started by the first job, that runs the submitted calls in order:
    each job still pending when its turn comes, none that its caller cancelled first."""

    def __init__(self):
        self.jobs: queue.SimpleQueue[_Job] = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, name="vqdet-worker", daemon=True)
        self.starting = threading.Lock()

    def _serve(self) -> None:
        while True:
            self.jobs.get().run()

    def submit(self, fn: Callable, *args) -> _Job:
        job = _Job(fn, args)
        self.jobs.put(job)
        with self.starting:
            if self.thread.ident is None:
                self.thread.start()
        return job


def _start_worker() -> None:
    """The worker thread, only where the process may use two CPUs."""
    global _worker
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    _worker = _Worker() if (cpus or 1) > 1 else None


_start_worker()
if hasattr(os, "register_at_fork"):  # a forked child has no thread behind the parent's worker
    os.register_at_fork(after_in_child=_start_worker)


def _run_heads(kernel: Callable[[Iterator[slice]], None], heads: int, logits: int) -> None:
    """Run ``kernel`` over every head of an attention call, given its head slices.

    With fewer than SPLIT_LOGITS ``logits`` per head, one slice covers all
    heads. Otherwise each head is its own slice, and the caller and the
    worker, if there is one, run the kernel over one shared iterator of them,
    so a head goes to whichever thread asks first. A job the worker has not
    started by the time the caller runs out of heads is cancelled; one it
    has is waited for, and its exception is raised here. The kernel only
    does arithmetic on arrays of its call that no two heads share, and
    records nothing.
    """
    if logits < SPLIT_LOGITS:
        kernel(iter([slice(0, heads)]))
        return
    shared = iter([slice(h, h + 1) for h in range(heads)])
    pending = None if _worker is None else _worker.submit(kernel, shared)
    try:
        kernel(shared)
    finally:
        if pending is not None and not pending.cancel():
            pending.result()


def multihead_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                        allow: np.ndarray | None = None
                        ) -> tuple[Tensor, Callable[[], np.ndarray] | None]:
    """Scaled dot-product attention over ``heads`` column blocks, as one node.

    ``q`` is (R, D) and ``k``, ``v`` are (T, D); head h reads columns
    [h*dh, (h+1)*dh) of each, dh = D / heads. Without ``allow`` every query
    row attends to every key row. With an (S, S) boolean ``allow``, R = T =
    G*S and the rows form G consecutive groups of S; row i of a group attends
    to row j of the same group where ``allow[i, j]`` and never to another
    group. The queries are scaled by 1/sqrt(dh) before the logits product,
    the row max over allowed logits is subtracted before exponentiation, and
    the value product of the unnormalised exponentials is divided by their
    row sums afterwards, as in FlashAttention (arXiv 2205.14135).

    The forward pass and the VJP each run one kernel body over slices of
    heads. A call whose heads each form fewer than ``SPLIT_LOGITS`` logits
    runs it once over all heads. A larger call (today only the encoder's
    256 x 256 self-attention) runs it one head at a time, each head on
    whichever of the caller and the module's worker thread takes it first
    (:func:`_run_heads`); without a worker the caller runs them all. A
    head's products, row reductions and elementwise passes are the same
    operations on the same values whichever way it runs, so the output, the
    weights and the gradients are bitwise the same on one thread or two, and
    with the heads run together or one at a time.

    Mask separation is exact for finite values only: a disallowed weight is
    exactly 0, but the value product still multiplies it by the disallowed
    row's values, and 0 * NaN is NaN, so one NaN in a noisy value row reaches
    every learnable row of its group.

    Returns the (R, D) output on the tape and, for a masked call, a function
    forming the per-head (G, H, S, S) weights off it, exactly 0 off the
    mask, only for a caller that reads them; an unmasked call returns None.
    """
    r, d = q.data.shape
    t = k.data.shape[0]
    if k.data.shape != (t, d) or v.data.shape != (t, d) or d % heads:
        raise ShapeError(f"multihead_attention: q {q.data.shape}, k {k.data.shape}, "
                         f"v {v.data.shape}, {heads} heads")
    if allow is None:
        groups, rows, cols = 1, r, t
    else:
        allow = np.asarray(allow, dtype=bool)
        s = allow.shape[0]
        if allow.shape != (s, s) or s == 0 or r % s or t != r:
            raise ShapeError(f"multihead_attention: mask {allow.shape} vs q {q.data.shape}, "
                             f"k {k.data.shape}")
        if not allow.any(axis=1).all():
            bad = int(np.flatnonzero(~allow.any(axis=1))[0])
            raise DegenerateMaskError(f"row {bad} has no allowed column")
        groups, rows, cols = r // s, s, s
        blocked = ~allow
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(x, n):  # (G*n, D) -> (G, H, n, dh), a view
        return x.reshape(groups, n, heads, dh).transpose(0, 2, 1, 3)

    def scale_heads(x, n, h, factor):  # x's columns of heads h *= factor, in memory order
        block = x.reshape(groups, n, heads, dh)[:, :, h]
        block *= factor

    qh, kh, vh = split(q.data * scale, rows), split(k.data, cols), split(v.data, cols)
    e = np.empty((groups, heads, rows, cols))
    inv = np.empty((groups, heads, rows, 1))
    out = np.empty((r, d))
    oh = split(out, rows)
    logits = groups * rows * cols  # per head

    def forward(head_slices):
        for h in head_slices:
            eh = np.matmul(qh[:, h], kh[:, h].swapaxes(-1, -2), out=e[:, h])
            if allow is not None:
                np.copyto(eh, -np.inf, where=blocked)
            eh -= eh.max(axis=-1, keepdims=True)
            np.exp(eh, out=eh)
            np.divide(1.0, eh.sum(axis=-1, keepdims=True), out=inv[:, h])
            np.matmul(eh, vh[:, h], out=oh[:, h])
            scale_heads(out, rows, h, inv[:, h].swapaxes(1, 2))

    _run_heads(forward, heads, logits)

    def vjp(g):
        gh, qu = split(g, rows), split(q.data, rows)
        gq, gk, gv = (np.empty(x.data.shape) if x.requires_grad else None for x in (q, k, v))

        def backward(head_slices):
            ds = None  # one buffer for all of this thread's heads
            for h in head_slices:
                # With P = e * inv, dS = e * (dO * inv @ V^T - rowsum(dO * inv * O)): the
                # row sums of dP * P are an (R, dh) product instead of an (R, T) one.
                gp = gh[:, h] * inv[:, h]
                delta = (gp * oh[:, h]).sum(axis=-1, keepdims=True)
                if gv is not None:
                    np.matmul(e[:, h].swapaxes(-1, -2), gp, out=split(gv, cols)[:, h])
                ds = np.matmul(gp, vh[:, h].swapaxes(-1, -2), out=ds)
                ds -= delta
                ds *= e[:, h]
                if gq is not None:
                    np.matmul(ds, kh[:, h], out=split(gq, rows)[:, h])
                    scale_heads(gq, rows, h, scale)
                if gk is not None:
                    np.matmul(ds.swapaxes(-1, -2), qu[:, h], out=split(gk, cols)[:, h])
                    scale_heads(gk, cols, h, scale)

        _run_heads(backward, heads, logits)
        return gq, gk, gv

    return _node(out, (q, k, v), vjp), None if allow is None else lambda: e * inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization to zero mean / unit variance (eps 1e-5), then affine."""
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],) \
            or bias.data.shape != (x.data.shape[1],):
        raise ShapeError(
            f"layer_norm: x {x.data.shape}, gain {gain.data.shape}, bias {bias.data.shape}")
    d = x.data.shape[1]
    mu = x.data.sum(axis=1, keepdims=True) / d  # np.mean's arithmetic
    xc = x.data - mu
    var = (xc * xc).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = np.multiply(xc, inv, out=xc)  # xc is not read again
    out = xhat * gain.data
    out += bias.data

    def vjp(g):
        gxhat = g * gain.data
        gx = None
        if x.requires_grad:
            # d xhat / d x folded into one expression per row
            gx = inv / d * (d * gxhat - gxhat.sum(axis=1, keepdims=True)
                            - xhat * (gxhat * xhat).sum(axis=1, keepdims=True))
        ggain = (g * xhat).sum(axis=0) if gain.requires_grad else None
        gbias = g.sum(axis=0) if bias.requires_grad else None
        return (gx, ggain, gbias)

    return _node(out, (x, gain, bias), vjp)


def weighted_row_smooth_l1(pred: Tensor, target: np.ndarray, row_weights: np.ndarray) -> Tensor:
    """Sum over rows of row_weight * (per-row mean Huber of pred - target).

    The target and the row weights are plain arrays, not tape values; no
    gradient flows into them, and any normalisation over rows is folded into
    the weights by the caller. An empty pred sums to exactly 0.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ShapeError(f"weighted_row_smooth_l1: shapes {pred.data.shape} vs {target.shape}")
    w = np.asarray(row_weights, dtype=np.float64)
    if pred.data.ndim != 2 or w.shape != (pred.data.shape[0],):
        raise ShapeError(f"weighted_row_smooth_l1: weights {w.shape} vs rows {pred.data.shape}")
    d = pred.data - target
    ad = np.abs(d)
    out = np.asarray((w * np.where(ad < 1.0, 0.5 * d * d, ad - 0.5).mean(axis=1)).sum())

    def vjp(g):
        return (float(g) * (w[:, None] / d.shape[1]) * np.where(ad < 1.0, d, np.sign(d)),)

    return _node(out, (pred,), vjp)


def gaussian_kl(mu: Tensor, log_var: Tensor) -> Tensor:
    """KL(N(mu, diag(exp(log_var))) || N(0, I)), summed per row, mean over rows.

    For a (K, D) input this is the per-query divergence summed over the D
    latent dimensions and averaged over the K queries; K = 0 contributes 0.
    """
    if mu.data.shape != log_var.data.shape:
        raise ShapeError(f"gaussian_kl: shapes {mu.data.shape} vs {log_var.data.shape}")
    rows = max(mu.data.shape[0], 1) if mu.data.ndim >= 1 else 1
    ev = np.exp(log_var.data)
    out = np.asarray(0.5 * (ev + mu.data ** 2 - 1.0 - log_var.data).sum() / rows)

    def vjp(g):
        s = float(g) / rows
        return (s * mu.data if mu.requires_grad else None,
                s * 0.5 * (ev - 1.0) if log_var.requires_grad else None)

    return _node(out, (mu, log_var), vjp)


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """``weights[0] * terms[0] + weights[1] * terms[1] + ...`` of scalar terms.

    The products are added left to right, so the value is bitwise that of the
    same expression written with ``*`` and ``+``.
    """
    ts, ws = list(terms), [float(w) for w in weights]
    if not ts or len(ts) != len(ws):
        raise ShapeError(f"weighted_sum: {len(ts)} terms vs {len(ws)} weights")
    for t in ts:
        if t.data.ndim != 0:
            raise ShapeError(f"weighted_sum: terms must be scalars, got shape {t.data.shape}")
    out = ts[0].data * ws[0]
    for t, w in zip(ts[1:], ws[1:]):
        out = out + t.data * w
    return _node(out, tuple(ts), lambda g: tuple(g * w for w in ws))


def sum_all(a: Tensor) -> Tensor:
    return _node(np.asarray(a.data.sum()), (a,),
                 lambda g: (np.full_like(a.data, float(g)),))


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack matrices vertically."""
    return _concat(list(tensors), 0, "concat_rows")


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    """Stack matrices side by side."""
    return _concat(list(tensors), 1, "concat_cols")


def _concat(ts: list[Tensor], axis: int, op: str) -> Tensor:
    if not ts:
        raise ShapeError(f"{op}: empty input")
    for t in ts:
        if t.data.ndim != 2:
            raise ShapeError(f"{op}: expected matrices, got shape {t.data.shape}")
    size = ts[0].data.shape[1 - axis]
    for t in ts:
        if t.data.shape[1 - axis] != size:
            raise ShapeError(f"{op}: shape {t.data.shape} vs {size} along axis {1 - axis}")
    out = np.concatenate([t.data for t in ts], axis=axis)

    def vjp(g):
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in ts])
        return tuple(g[(slice(None),) * axis + (slice(lo, hi),)] if t.requires_grad else None
                     for t, lo, hi in zip(ts, offsets, offsets[1:]))

    return _node(out, tuple(ts), vjp)


def gather_rows(a: Tensor, idx: Sequence[int]) -> Tensor:
    """Select rows by index (duplicates allowed); backward scatter-adds."""
    ind = np.asarray(idx, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected matrix, got {a.data.shape}")
    if ind.size and (ind.min() < 0 or ind.max() >= a.data.shape[0]):
        raise IndexError(f"gather_rows: index out of range for {a.data.shape[0]} rows")
    out = a.data[ind]

    def vjp(g):
        if np.bincount(ind, minlength=1).max() <= 1:  # unique: np.add.at's 0.0 + g, cheaper
            return (RowGrad(ind, g),)
        gx = np.zeros_like(a.data)
        np.add.at(gx, ind, g)
        return (gx,)

    return _node(out, (a,), vjp)


def _consumed(g):
    """The VJP of an op that backward has already run through."""
    raise DoubleBackwardError("backward already ran through this node; rebuild the graph")


def backward(loss: Tensor, store: "ParameterStore | None" = None) -> None:
    """Populate gradients of everything the scalar ``loss`` depends on.

    If ``store`` is given, parameters that the loss does not reach receive an
    explicit zero gradient. Each op's VJP is dropped once it has run, so a
    second call on the same loss, or on any loss whose tape reaches an op
    that a walk ran through, raises :class:`DoubleBackwardError` before it
    writes a gradient; run the forward again to walk another loss of it. A
    leaf used as its own loss has no op to drop, so like any leaf gradient
    its ``grad`` accumulates on every call.
    A non-finite loss raises FloatingPointError naming the first non-finite
    tensor on its tape, in topological order: an op by name and shape, or a
    parameter of ``store`` by its name.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not np.isfinite(loss.data).all():
        raise FloatingPointError(f"backward: loss is {float(loss.data)!r}; "
                                 f"{first_non_finite([loss], store)}")

    order = _post_order([loss])
    if any(node._vjp is _consumed for node in order):
        raise DoubleBackwardError("backward already ran through an op of this loss; "
                                  "rebuild the graph")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:  # a leaf
            if node.grad is None:
                node.grad = np.add(g, 0.0, out=np.empty_like(node.data))
            else:
                node.grad += g
            continue
        g_taken = False  # g was popped, so backward owns it: one parent may keep it
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            if isinstance(pg, RowGrad):
                if acc is None:
                    acc = grads[id(parent)] = np.zeros_like(parent.data)
                acc[pg.rows] += pg.values
            elif acc is None:
                # Own the buffer, so that a later in-place add changes only
                # this entry. A VJP of 0-d operands returns a numpy scalar,
                # which += would rebind instead of update.
                if pg is g:
                    owned, g_taken = not g_taken, True
                else:
                    owned = isinstance(pg, np.ndarray) and pg.base is None
                grads[id(parent)] = pg if owned else np.array(pg)
            else:
                acc += pg
        node._vjp = _consumed  # frees what only the closure held

    if store is not None:
        for t in store.tensors():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


def _post_order(roots: Sequence[Tensor]) -> list[Tensor]:
    """``roots`` and their recorded ancestors, each after all of its parents."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(r, False) for r in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def first_non_finite(roots: Sequence[Tensor], store: "ParameterStore | None") -> str:
    """Describe the first tensor on the tape of ``roots`` holding a NaN or an infinity.

    The tape is walked in post-order, so every recorded input of the named
    tensor is finite: it is where the non-finite values start. An op is
    named by the function that made its VJP, a parameter of ``store`` by its
    name.
    """
    t = next((t for t in _post_order(roots) if not np.isfinite(t.data).all()), None)
    if t is None:
        return "every tensor on its tape is finite"
    if t._vjp is not None:
        what = f"{t._vjp.__qualname__.split('.')[0]} output"
    else:
        names = {id(p): name for name, p in store.items()} if store is not None else {}
        what = f"parameter {names[id(t)]!r}" if id(t) in names else "leaf"
    return f"first non-finite tensor: {what} {t.data.shape}"


class ParameterStore:
    """Named trainable tensors with deterministic iteration order.

    Parameters are created through :meth:`param` or :meth:`linear`; creation
    order fixes iteration order, so two stores built by the same code path
    are aligned name-for-name. ``rng_seed`` seeds the initializer stream.
    """

    def __init__(self, rng_seed: int = 0):
        self._params: dict[str, Tensor] = {}
        self._rng = np.random.default_rng(int(rng_seed))

    def param(self, name: str, shape: tuple[int, ...], scale: float = 0.02,
              init: np.ndarray | None = None) -> Tensor:
        """Create a parameter under a name not yet in the store.

        New parameters are N(0, scale^2) unless an explicit ``init`` array is
        given. A repeated name raises ``ValueError``: two layers built under
        one name would otherwise share weights.
        """
        if name in self._params:
            raise ValueError(f"parameter {name!r} is already in the store")
        if init is not None:
            data = np.asarray(init, dtype=np.float64).reshape(shape)
        elif scale == 0.0:
            data = np.zeros(shape)
        else:
            data = self._rng.normal(0.0, scale, size=shape)
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def linear(self, name: str, din: int, dout: int | Sequence[int],
               bias: float | Sequence[float] = 0.0) -> tuple[Tensor, Tensor]:
        """``name.w``, (din, dout) drawn N(0, 0.1^2), and ``name.b`` filled with ``bias``;
        given block widths and a bias per block, each block is drawn as its own layer."""
        widths = np.atleast_1d(dout)
        w = np.concatenate([self._rng.normal(0.0, 0.1, size=(din, k)) for k in widths], axis=1)
        return (self.param(f"{name}.w", w.shape, init=w),
                self.param(f"{name}.b", w.shape[1:],
                           init=np.repeat(np.broadcast_to(bias, widths.shape), widths)))

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params.keys())

    def tensors(self) -> Iterable[Tensor]:
        return self._params.values()

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None


# What zipfile and numpy raise on a damaged archive: BadZipFile (CRC-32, directory),
# OSError (offset), RuntimeError (method, encryption flag), EOFError, ValueError and,
# from numpy's fallback header parser, TokenError.
_ARCHIVE_ERRORS = (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile,
                   tokenize.TokenError)


def save_checkpoint(store: ParameterStore, path) -> None:
    """Write the store to ``path`` as an ``.npz`` archive keyed by parameter name."""
    with open(path, "wb") as f:  # given a name, np.savez would append ".npz" to it
        np.savez(f, **{name: t.data for name, t in store.items()})


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into a name -> array map.

    A file that is not an ``.npz`` archive (an empty, truncated or bare
    ``.npy`` file) raises ValueError naming the path, as does an entry whose
    CRC-32 fails, that is not float64, repeats a name, holds a NaN or
    infinity, or has a comment (none is written; a damaged comment length
    hides the entries after it), naming the entry too.
    """
    with open(path, "rb") as f:
        try:
            archive = zipfile.ZipFile(f)
        except _ARCHIVE_ERRORS as exc:
            raise ValueError(f"{path}: not an .npz archive: {exc}") from exc
        out: dict[str, np.ndarray] = {}
        for info in archive.infolist():
            name = info.filename.removesuffix(".npy")
            entry = f"{path}: entry {name!r}"
            if name in out:
                raise ValueError(f"{entry} repeats a parameter name")
            if info.comment:
                raise ValueError(f"{entry} has a comment; the archive's directory is damaged")
            try:
                # np.load of the archive would check an entry's CRC-32 only once it read
                # the entry to its end, which a damaged shape in the header prevents
                arr = np.load(io.BytesIO(archive.read(info)), allow_pickle=False)
            except _ARCHIVE_ERRORS as exc:
                raise ValueError(f"{entry} is unreadable: {exc}") from exc
            if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
                raise ValueError(f"{entry} is not a float64 array")
            if not np.isfinite(arr).all():
                raise ValueError(f"{entry} holds a value that is not finite")
            out[name] = arr
    return out


def restore_into(store: ParameterStore, values: dict[str, np.ndarray]) -> None:
    """Copy checkpoint values over an already-built store, name by name.

    The checkpoint must hold exactly the store's names: a missing or an
    unexpected name raises ``KeyError`` naming it.
    """
    names = store.names()
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"checkpoint missing parameters: {missing[:3]}")
    unexpected = sorted(values.keys() - set(names))
    if unexpected:
        raise KeyError(f"checkpoint has parameters the model lacks: {unexpected[:3]}")
    for name, t in store.items():
        arr = values[name]
        if arr.shape != t.data.shape:
            raise ShapeError(f"checkpoint {name!r}: shape {arr.shape} vs {t.data.shape}")
        t.data = arr.copy()
