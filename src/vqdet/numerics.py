"""Dense float64 tensors with reverse-mode differentiation on a recorded tape.

Every differentiable quantity in the detector (queries, features, latent
means/log-variances, logits, losses) lives in a :class:`Tensor`. Forward
operations record their inputs and a vector-Jacobian closure; calling
:func:`backward` on a scalar loss walks the recorded graph once in reverse
topological order and accumulates gradients into the ``requires_grad``
leaves on the path, such as parameters. A non-finite loss stops
:func:`backward` with an error naming the first non-finite tensor.

Inside :func:`no_grad` the same ops compute the same values but record
nothing: inference and finite-difference probes, which need only values,
keep no graph alive. A value that only the backward pass reads is computed
in the VJP, not in the forward op, so untaped calls do not pay for it.

The module holds only the operations the detector runs. Each loss term is
one node with a closed-form VJP (``giou_loss`` goes from centers and edge
distances straight to the mean GIoU term), and so is a weighted sum of
scalar losses. Reference ops that only the tests compose (matmul, softmax,
row and column slices, elementwise min/max and the like) live beside the
oracles that use them, in ``tests/oracles.py``.

The tape is rebuilt from scratch each training step and is single-threaded
within a step. Data is always float64; there is no broadcasting beyond the
two cases the model needs (same shape, and a scalar operand); ``linear``
adds its own bias.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ParameterStore",
    "ShapeError",
    "DegenerateMaskError",
    "DoubleBackwardError",
    "backward",
    "no_grad",
    "linear",
    "relu",
    "sigmoid",
    "softplus",
    "exp",
    "clamp",
    "multihead_attention",
    "layer_norm",
    "weighted_row_smooth_l1",
    "gaussian_kl",
    "focal_loss",
    "giou_loss",
    "l1_loss",
    "weighted_sum",
    "sum_all",
    "concat_rows",
    "concat_cols",
    "gather_rows",
    "save_checkpoint",
    "load_checkpoint",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateMaskError(ValueError):
    """A softmax row has no allowed column."""


class DoubleBackwardError(RuntimeError):
    """backward() was called twice on the same loss without a reset."""


class Tensor:
    """A dense float64 array with an optional gradient slot.

    ``data`` is stored row-major. Only a leaf, a tensor that no operation
    produced, keeps a gradient: its ``grad`` stays ``None`` until a backward
    pass reaches it, then has exactly the shape of ``data`` and accumulates
    across backward calls until explicitly cleared. Gradients of
    intermediate results live only for the duration of :func:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._backward_done = False

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

    def __radd__(self, other):
        return _add(self, _as_tensor(other))

    def __sub__(self, other):
        return _add(self, _neg(_as_tensor(other)))

    def __rsub__(self, other):
        return _add(_neg(self), _as_tensor(other))

    def __mul__(self, other):
        return _mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return _mul(self, _as_tensor(other))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("division is only supported by python scalars")
        return _mul(self, Tensor(1.0 / float(other)))

    def __neg__(self):
        return _neg(self)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


# Cleared inside no_grad(): ops then record nothing on the tape.
_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Run the enclosed ops as plain array arithmetic, recording no tape.

    Every op output inside the block has ``requires_grad`` False, no parents
    and no VJP closure, so it keeps no input alive. Values are bitwise those
    of the taped ops. The previous state is restored on exit, also when the
    block raises, so blocks nest.
    """
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
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
    out = x.data @ w.data + b.data

    def vjp(g):
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _node(out, (x, w, b), vjp)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0.0
    return _node(np.where(keep, a.data, 0.0), (a,), lambda g: (g * keep,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Stable on both tails.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed without overflow; derivative is sigmoid(x)."""
    return _node(_softplus(a.data), (a,), lambda g: (g * _sigmoid(a.data),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Elementwise clip; gradient is zero outside [lo, hi]."""
    return _node(np.clip(a.data, lo, hi), (a,),
                 lambda g: (g * ((a.data >= lo) & (a.data <= hi)),))


def multihead_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                        allow: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention over ``heads`` column blocks, as one node.

    ``q`` is (R, D) and ``k``, ``v`` are (T, D); head h reads columns
    [h*dh, (h+1)*dh) of each, dh = D / heads. Without ``allow`` every query
    row attends to every key row. With an (S, S) boolean ``allow``, R = T =
    G*S and the rows form G consecutive groups of S; row i of a group attends
    to row j of the same group where ``allow[i, j]`` and never to another
    group. The row max over allowed logits is subtracted before
    exponentiation, and disallowed weights are exactly 0.

    Returns the (R, D) output on the tape and the per-head weights off it, a
    read-only (G, H, S, S) array; G = 1 and the weights are (1, H, R, T)
    without ``allow``.
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
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(x, n):  # (G*n, D) -> (G, H, n, dh)
        return x.reshape(groups, n, heads, dh).transpose(0, 2, 1, 3)

    def merge(x, n):  # (G, H, n, dh) -> (G*n, D)
        return x.transpose(0, 2, 1, 3).reshape(groups * n, d)

    qh, kh, vh = split(q.data, rows), split(k.data, cols), split(v.data, cols)
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    if allow is not None:
        np.copyto(p, -np.inf, where=~allow)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    p.flags.writeable = False  # the backward reads it
    out = merge(p @ vh, rows)

    def vjp(g):
        gh = split(g, rows)
        ds = gh @ vh.swapaxes(-1, -2)
        # rowsum(dP * P) = rowsum(dO * O) per head: an (R, dh) product
        # instead of an (R, T) one (FlashAttention, arXiv 2205.14135).
        ds -= (gh * split(out, rows)).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        return (merge(ds @ kh, rows) if q.requires_grad else None,
                merge(ds.swapaxes(-1, -2) @ qh, cols) if k.requires_grad else None,
                merge(p.swapaxes(-1, -2) @ gh, cols) if v.requires_grad else None)

    return _node(out, (q, k, v), vjp), p


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine."""
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],) \
            or bias.data.shape != (x.data.shape[1],):
        raise ShapeError(
            f"layer_norm: x {x.data.shape}, gain {gain.data.shape}, bias {bias.data.shape}")
    d = x.data.shape[1]
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

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


def _huber(d: np.ndarray) -> np.ndarray:
    ad = np.abs(d)
    return np.where(ad < 1.0, 0.5 * d * d, ad - 0.5)


def _huber_grad(d: np.ndarray) -> np.ndarray:
    return np.where(np.abs(d) < 1.0, d, np.sign(d))


def weighted_row_smooth_l1(pred: Tensor, target: Tensor, row_weights: np.ndarray) -> Tensor:
    """Sum over rows of row_weight * (per-row mean Huber of pred - target).

    Row weights are plain numbers, not tape values; no gradient flows into
    them, and any normalisation over rows is folded into them by the caller.
    An empty pred sums to exactly 0.
    """
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"weighted_row_smooth_l1: shapes {pred.data.shape} vs {target.data.shape}")
    w = np.asarray(row_weights, dtype=np.float64)
    if pred.data.ndim != 2 or w.shape != (pred.data.shape[0],):
        raise ShapeError(f"weighted_row_smooth_l1: weights {w.shape} vs rows {pred.data.shape}")
    d = pred.data - target.data
    out = np.asarray((w * _huber(d).mean(axis=1)).sum())

    def vjp(g):
        gd = float(g) * (w[:, None] / d.shape[1]) * _huber_grad(d)
        return (gd if pred.requires_grad else None,
                -gd if target.requires_grad else None)

    return _node(out, (pred, target), vjp)


def gaussian_kl(mu: Tensor, log_var: Tensor) -> Tensor:
    """KL(N(mu, diag(exp(log_var))) || N(0, I)), summed per row, mean over rows.

    For a (K, D) input this is the per-query divergence summed over the D
    latent dimensions and averaged over the K queries; K = 0 contributes 0.
    """
    if mu.data.shape != log_var.data.shape:
        raise ShapeError(f"gaussian_kl: shapes {mu.data.shape} vs {log_var.data.shape}")
    if not (np.isfinite(mu.data).all() and np.isfinite(log_var.data).all()):
        raise FloatingPointError("gaussian_kl: non-finite input")
    rows = mu.data.shape[0] if mu.data.ndim >= 1 else 1
    if mu.data.size == 0:
        return _node(np.asarray(0.0), (mu, log_var), lambda g: (np.zeros_like(mu.data),
                                                                np.zeros_like(log_var.data)))
    rows = max(rows, 1)
    ev = np.exp(log_var.data)
    out = np.asarray(0.5 * (ev + mu.data ** 2 - 1.0 - log_var.data).sum() / rows)

    def vjp(g):
        s = float(g) / rows
        return (s * mu.data if mu.requires_grad else None,
                s * 0.5 * (ev - 1.0) if log_var.requires_grad else None)

    return _node(out, (mu, log_var), vjp)


def focal_loss(logits: Tensor, target_onehot: np.ndarray, alpha: float,
               gamma: float, normalizer: float) -> Tensor:
    """Sigmoid focal loss summed over all entries, divided by ``normalizer``.

    Stable form: log p = -softplus(-z) and log(1-p) = -softplus(z), with the
    modulating factors written as exp(gamma * log(.)) <= 1. The targets are
    plain numbers; no gradient flows into them.
    """
    t = np.asarray(target_onehot, dtype=np.float64)
    z = logits.data
    if t.shape != z.shape:
        raise ShapeError(f"focal_loss: targets {t.shape} vs logits {z.shape}")
    log_p = -_softplus(-z)
    log_1mp = -_softplus(z)
    mod_pos = np.exp(log_1mp * gamma)  # (1 - p)^gamma
    mod_neg = np.exp(log_p * gamma)    # p^gamma
    w_pos = alpha * t
    w_neg = (1.0 - alpha) * (1.0 - t)
    weighted = mod_pos * log_p * w_pos + mod_neg * log_1mp * w_neg
    scale = -1.0 / normalizer
    out = np.asarray(weighted.sum()) * scale

    def vjp(g):
        gs = float(g) * scale
        g_pos = gs * w_pos
        g_neg = gs * w_neg
        g_log_p = g_pos * mod_pos + g_neg * log_1mp * mod_neg * gamma
        g_log_1mp = g_pos * log_p * mod_pos * gamma + g_neg * mod_neg
        # d log p / dz = sigmoid(-z), d log(1-p) / dz = -sigmoid(z)
        return (g_log_p * _sigmoid(-z) - g_log_1mp * _sigmoid(z),)

    return _node(out, (logits,), vjp)


def giou_loss(centers: Tensor, lrtb: Tensor, target_corners: np.ndarray,
              normalizer: float) -> Tensor:
    """``1 - sum(GIoU) / normalizer`` of (m, 2) centers and (m, 4) edge distances.

    Row i's predicted corner box (x0, y0, x1, y1) is the center minus its
    left/top and plus its right/bottom distance, scored against the constant
    corner box ``target_corners[i]``. Target boxes must be non-degenerate;
    their positive areas bound union and hull away from zero, keeping the
    divisions safe. Every min/max routes its gradient to the predicted
    coordinate on a tie, and a zero-width intersection passes no gradient.
    """
    c, e = centers.data, lrtb.data
    tc = np.asarray(target_corners, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != 2 or e.shape != (c.shape[0], 4) or tc.shape != e.shape:
        raise ShapeError(f"giou_loss: centers {c.shape}, lrtb {e.shape}, targets {tc.shape}")
    ax0, ay0 = c[:, :1] - e[:, 0:1], c[:, 1:] - e[:, 2:3]
    ax1, ay1 = c[:, :1] + e[:, 1:2], c[:, 1:] + e[:, 3:4]
    bx0, by0, bx1, by1 = (tc[:, j:j + 1] for j in range(4))
    # take_* marks where the predicted coordinate wins each min/max
    take_ix1, take_iy1 = ax1 <= bx1, ay1 <= by1
    take_ix0, take_iy0 = ax0 >= bx0, ay0 >= by0
    take_hx1, take_hy1 = ax1 >= bx1, ay1 >= by1
    take_hx0, take_hy0 = ax0 <= bx0, ay0 <= by0
    raw_w = np.where(take_ix1, ax1, bx1) - np.where(take_ix0, ax0, bx0)
    raw_h = np.where(take_iy1, ay1, by1) - np.where(take_iy0, ay0, by0)
    keep_w, keep_h = raw_w > 0.0, raw_h > 0.0
    inter_w = np.where(keep_w, raw_w, 0.0)
    inter_h = np.where(keep_h, raw_h, 0.0)
    inter = inter_w * inter_h
    wa, ha = ax1 - ax0, ay1 - ay0
    area_b = (tc[:, 2] - tc[:, 0])[:, None] * (tc[:, 3] - tc[:, 1])[:, None]
    union = wa * ha + area_b - inter
    hull_w = np.where(take_hx1, ax1, bx1) - np.where(take_hx0, ax0, bx0)
    hull_h = np.where(take_hy1, ay1, by1) - np.where(take_hy0, ay0, by0)
    hull = hull_w * hull_h
    giou = inter / union - (hull - union) / hull
    scale = -1.0 / normalizer
    out = np.asarray(giou.sum()) * scale + 1.0

    def vjp(g):
        g = float(g) * scale  # the same for every row's GIoU
        # giou = inter / union - (hull - union) / hull
        g_inter = g / union
        g_union = -g * inter / (union * union) + g / hull
        g_hull = -g * union / (hull * hull)
        # union = wa * ha + area_b - inter
        g_inter = g_inter - g_union
        g_w = g_inter * inter_h * keep_w
        g_h = g_inter * inter_w * keep_h
        g_hw = g_hull * hull_h
        g_hh = g_hull * hull_w
        g_wa = g_union * ha
        g_ha = g_union * wa
        gx0 = -g_w * take_ix0 - g_wa - g_hw * take_hx0
        gy0 = -g_h * take_iy0 - g_ha - g_hh * take_hy0
        gx1 = g_w * take_ix1 + g_wa + g_hw * take_hx1
        gy1 = g_h * take_iy1 + g_ha + g_hh * take_hy1
        # x0 = cx - l, y0 = cy - t, x1 = cx + r, y1 = cy + b
        return (np.concatenate([gx0 + gx1, gy0 + gy1], axis=1),
                np.concatenate([-gx0, gx1, -gy0, gy1], axis=1))

    return _node(out, (centers, lrtb), vjp)


def l1_loss(pred: Tensor, target: np.ndarray, normalizer: float) -> Tensor:
    """Sum over all entries of |pred - target|, divided by ``normalizer``.

    The target is a plain array; no gradient flows into it. The gradient at
    pred == target is 0.
    """
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.data.shape:
        raise ShapeError(f"l1_loss: shapes {pred.data.shape} vs {t.shape}")
    d = pred.data - t
    scale = 1.0 / normalizer
    out = np.asarray(np.abs(d).sum()) * scale
    return _node(out, (pred,), lambda g: (float(g) * scale * np.sign(d),))


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
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat_rows: empty input")
    width = ts[0].data.shape[1]
    for t in ts:
        if t.data.ndim != 2 or t.data.shape[1] != width:
            raise ShapeError(f"concat_rows: widths differ ({t.data.shape} vs width {width})")
    out = np.concatenate([t.data for t in ts], axis=0)

    def vjp(g):
        offsets = np.cumsum([0] + [t.data.shape[0] for t in ts])
        return tuple(g[offsets[i]:offsets[i + 1]] if t.requires_grad else None
                     for i, t in enumerate(ts))

    return _node(out, tuple(ts), vjp)


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat_cols: empty input")
    rows = ts[0].data.shape[0]
    for t in ts:
        if t.data.ndim != 2 or t.data.shape[0] != rows:
            raise ShapeError(f"concat_cols: row counts differ ({t.data.shape} vs {rows})")
    out = np.concatenate([t.data for t in ts], axis=1)

    def vjp(g):
        offsets = np.cumsum([0] + [t.data.shape[1] for t in ts])
        return tuple(g[:, offsets[i]:offsets[i + 1]] if t.requires_grad else None
                     for i, t in enumerate(ts))

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
        gx = np.zeros_like(a.data)
        np.add.at(gx, ind, g)
        return (gx,)

    return _node(out, (a,), vjp)


def backward(loss: Tensor, store: "ParameterStore | None" = None) -> None:
    """Populate gradients of everything the scalar ``loss`` depends on.

    If ``store`` is given, parameters that the loss does not reach receive an
    explicit zero gradient. Calling twice on the same loss raises
    :class:`DoubleBackwardError`; rebuild the graph (a new step) to reset.
    A non-finite loss raises FloatingPointError naming the first non-finite
    tensor on its tape, in topological order: an op by name and shape, or a
    parameter of ``store`` by its name.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if loss._backward_done:
        raise DoubleBackwardError("backward already ran for this loss; rebuild the graph")
    loss._backward_done = True

    # Iterative post-order over the requires_grad subgraph.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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
    if not np.isfinite(loss.data).all():
        raise FloatingPointError(f"backward: loss is {float(loss.data)!r}; "
                                 f"{_first_non_finite(order, store)}")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:  # a leaf
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            if acc is None:
                # Own the buffer, so that a later in-place add changes only
                # this entry. A VJP of 0-d operands returns a numpy scalar,
                # which += would rebind instead of update.
                owned = isinstance(pg, np.ndarray) and pg.base is None and pg is not g
                grads[id(parent)] = pg if owned else np.array(pg)
            else:
                acc += pg

    if store is not None:
        for t in store.tensors():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


def _first_non_finite(order: list[Tensor], store: "ParameterStore | None") -> str:
    """Describe the first tensor of ``order`` holding a NaN or an infinity.

    Parents precede their outputs in ``order``, so every recorded input of
    the named tensor is finite: it is where the non-finite values start.
    ``order`` ends with the non-finite loss, so there is always one. An op
    is named by the function that made its VJP.
    """
    t = next(t for t in order if not np.isfinite(t.data).all())
    if t._vjp is not None:
        what = f"{t._vjp.__qualname__.split('.')[0]} output"
    else:
        names = {id(p): name for name, p in store.items()} if store is not None else {}
        what = f"parameter {names[id(t)]!r}" if id(t) in names else "leaf"
    return f"first non-finite tensor: {what} {t.data.shape}"


class ParameterStore:
    """Named trainable tensors with deterministic iteration order.

    Parameters are created lazily through :meth:`param`; creation order fixes
    iteration order, so two stores built by the same code path are aligned
    name-for-name. ``rng_seed`` seeds the initializer stream.
    """

    def __init__(self, rng_seed: int = 0):
        self.rng_seed = int(rng_seed)
        self._params: dict[str, Tensor] = {}
        self._rng = np.random.default_rng(self.rng_seed)

    def param(self, name: str, shape: tuple[int, ...], scale: float = 0.02,
              init: np.ndarray | None = None) -> Tensor:
        """Fetch a parameter, creating it on first use.

        New parameters are N(0, scale^2) unless an explicit ``init`` array is
        given. Re-requesting a name checks the shape and returns the original.
        """
        if name in self._params:
            t = self._params[name]
            if t.data.shape != tuple(shape):
                raise ShapeError(f"parameter {name!r}: shape {t.data.shape} vs {tuple(shape)}")
            return t
        if init is not None:
            data = np.asarray(init, dtype=np.float64).reshape(shape)
        elif scale == 0.0:
            data = np.zeros(shape)
        else:
            data = self._rng.normal(0.0, scale, size=shape)
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

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


# Checkpoint file layout: magic "VQD1", u32 version, u32 record count, then
# one record per parameter: u32 name length, UTF-8 name, u32 rank, u64
# extents, and the row-major little-endian float64 payload. Records run to
# end of file.

_MAGIC = b"VQD1"
_VERSION = 2


def save_checkpoint(store: ParameterStore, path) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(store.names())))
        for name, t in store.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", t.data.ndim))
            for ext in t.data.shape:
                f.write(struct.pack("<Q", ext))
            f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into a name -> array map.

    A truncated file, bytes after the last record, a name that is not
    UTF-8 or appears twice, or a record count other than the header's raise
    ValueError naming the path and the record.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    if len(blob) < 12:
        raise ValueError(f"{path}: truncated checkpoint header")
    version, expected = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    pos = 12
    out: dict[str, np.ndarray] = {}

    def take(n: int, record: str) -> int:
        """Start of the next n bytes of ``record``; raises if the file ends first."""
        nonlocal pos
        if pos + n > len(blob):
            raise ValueError(f"{path}: {record} is truncated: it needs {pos + n} bytes, "
                             f"the file has {len(blob)}")
        start, pos = pos, pos + n
        return start

    while pos < len(blob):
        record = f"record {len(out)}"
        if len(blob) - pos < 4:
            raise ValueError(f"{path}: {len(blob) - pos} trailing bytes after "
                             f"{len(out)} records, where {record} would start")
        (nlen,) = struct.unpack_from("<I", blob, take(4, record))
        start = take(nlen, record)
        try:
            name = blob[start:start + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {record} has a name that is not UTF-8: {exc}") from exc
        record = f"record {len(out)} ({name!r})"
        if name in out:
            raise ValueError(f"{path}: {record} repeats a parameter name")
        (rank,) = struct.unpack_from("<I", blob, take(4, record))
        shape = struct.unpack_from(f"<{rank}Q", blob, take(8 * rank, record))
        count = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=take(8 * count, record))
        out[name] = arr.reshape(shape).astype(np.float64)
    if len(out) != expected:
        raise ValueError(f"{path}: the header promises {expected} records, "
                         f"the file holds {len(out)}")
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
