"""Dense float64 tensors with reverse-mode differentiation on a recorded tape.

Every differentiable quantity in the detector (queries, features, latent
means/log-variances, logits, losses) lives in a :class:`Tensor`. Forward
operations record their inputs and a vector-Jacobian closure; calling
:func:`backward` on a scalar loss walks the recorded graph once in reverse
topological order and accumulates gradients into every ``requires_grad``
tensor on the path.

The tape is rebuilt from scratch each training step and is single-threaded
within a step. Data is always float64; there is no broadcasting beyond the
three cases the model needs (same shape, matrix + row vector, scalar).
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ParameterStore",
    "ShapeError",
    "DegenerateMaskError",
    "DoubleBackwardError",
    "backward",
    "matmul",
    "transpose",
    "linear",
    "relu",
    "sigmoid",
    "softplus",
    "exp",
    "log",
    "absolute",
    "divide",
    "minimum",
    "maximum",
    "clamp",
    "softmax_rows",
    "multihead_attention",
    "layer_norm",
    "weighted_row_smooth_l1",
    "gaussian_kl",
    "focal_loss",
    "corner_boxes",
    "giou2d_pairs",
    "l1_loss",
    "weighted_sum",
    "sum_all",
    "concat_rows",
    "concat_cols",
    "narrow_rows",
    "narrow_cols",
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

    ``data`` is stored row-major. ``grad`` stays ``None`` until a backward
    pass reaches this tensor; it then has exactly the shape of ``data`` and
    accumulates across backward calls until explicitly cleared.
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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Arithmetic. Shapes must match exactly, except that a (r, c) matrix
    # accepts a (c,) row vector and any tensor accepts a python scalar.

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


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._vjp = vjp
    return out


def _reduce_to(shape: tuple[int, ...], g: np.ndarray) -> np.ndarray:
    """Sum a gradient down to ``shape`` for the supported broadcast cases."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    # (r, c) gradient flowing into a (c,) row vector
    if len(shape) == 1 and g.ndim == 2 and g.shape[1] == shape[0]:
        return g.sum(axis=0)
    raise ShapeError(f"cannot reduce gradient of shape {g.shape} to {shape}")


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    sa, sb = a.data.shape, b.data.shape
    if sa == sb or sa == () or sb == ():
        return
    if len(sa) == 2 and sb == (sa[1],):
        return
    if len(sb) == 2 and sa == (sb[1],):
        return
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (m, k) by a (k, n) tensor."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _node(out, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected matrix, got shape {a.data.shape}")
    return _node(a.data.T.copy(), (a,), lambda g: (g.T,))


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
    sig = _sigmoid(a.data)
    return _node(_softplus(a.data), (a,), lambda g: (g * sig,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def absolute(a: Tensor) -> Tensor:
    return _node(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def divide(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a / b; caller guarantees b is bounded away from zero."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"divide: shapes {a.data.shape} vs {b.data.shape}")
    out = a.data / b.data

    def vjp(g):
        return (g / b.data if a.requires_grad else None,
                -g * a.data / (b.data * b.data) if b.requires_grad else None)

    return _node(out, (a, b), vjp)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"minimum: shapes {a.data.shape} vs {b.data.shape}")
    take_a = a.data <= b.data

    def vjp(g):
        return (g * take_a if a.requires_grad else None,
                g * ~take_a if b.requires_grad else None)

    return _node(np.where(take_a, a.data, b.data), (a, b), vjp)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"maximum: shapes {a.data.shape} vs {b.data.shape}")
    take_a = a.data >= b.data

    def vjp(g):
        return (g * take_a if a.requires_grad else None,
                g * ~take_a if b.requires_grad else None)

    return _node(np.where(take_a, a.data, b.data), (a, b), vjp)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Elementwise clip; gradient is zero outside [lo, hi]."""
    inside = (a.data >= lo) & (a.data <= hi)
    return _node(np.clip(a.data, lo, hi), (a,), lambda g: (g * inside,))


def softmax_rows(x: Tensor, allow: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax, optionally restricted to an allowed-column mask.

    ``allow`` is a boolean array matching ``x``; disallowed entries come out
    exactly 0 and each row normalizes over its allowed columns only. The row
    max over allowed entries is subtracted before exponentiation, so a row
    computed with extra masked-out columns present is bit-identical to the
    same row computed without them.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows: expected matrix, got shape {x.data.shape}")
    if allow is None:
        z = x.data
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        mask = None
    else:
        allow = np.asarray(allow, dtype=bool)
        if allow.shape != x.data.shape:
            raise ShapeError(f"softmax_rows: mask shape {allow.shape} vs {x.data.shape}")
        if not allow.any(axis=1).all():
            bad = int(np.flatnonzero(~allow.any(axis=1))[0])
            raise DegenerateMaskError(f"row {bad} has no allowed column")
        neg = np.where(allow, x.data, -np.inf)
        neg = neg - neg.max(axis=1, keepdims=True)
        e = np.where(allow, np.exp(neg), 0.0)
        p = e / e.sum(axis=1, keepdims=True)
        mask = allow

    def vjp(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        gx = p * (g - dot)
        if mask is not None:
            gx = np.where(mask, gx, 0.0)
        return (gx,)

    return _node(p, (x,), vjp)


def multihead_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                        allow: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention over ``heads`` column blocks, as one node.

    ``q`` is (R, D) and ``k``, ``v`` are (T, D); head h reads columns
    [h*dh, (h+1)*dh) of each, dh = D / heads. Without ``allow`` every query
    row attends to every key row. With an (S, S) boolean ``allow``, R = T =
    G*S and the rows form G consecutive groups of S; row i of a group attends
    to row j of the same group where ``allow[i, j]`` and never to another
    group. The softmax matches :func:`softmax_rows` entry for entry:
    disallowed weights are exactly 0.

    Returns the (R, D) output on the tape and the head-averaged weights off
    it: (R, T) without ``allow``, (G, S, S) with it.
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
    avg = p.sum(axis=1) / heads

    def vjp(g):
        gh = split(g, rows)
        ds = gh @ vh.swapaxes(-1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        return (merge(ds @ kh, rows) if q.requires_grad else None,
                merge(ds.swapaxes(-1, -2) @ qh, cols) if k.requires_grad else None,
                merge(p.swapaxes(-1, -2) @ gh, cols) if v.requires_grad else None)

    out = _node(merge(p @ vh, rows), (q, k, v), vjp)
    return out, (avg[0] if allow is None else avg)


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
    """Mean over rows of row_weight * (per-row mean Huber of pred - target).

    Row weights are plain numbers, not tape values; no gradient flows into
    them. An empty pred contributes exactly 0.
    """
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"weighted_row_smooth_l1: shapes {pred.data.shape} vs {target.data.shape}")
    w = np.asarray(row_weights, dtype=np.float64)
    if pred.data.ndim != 2 or w.shape != (pred.data.shape[0],):
        raise ShapeError(f"weighted_row_smooth_l1: weights {w.shape} vs rows {pred.data.shape}")
    r, d_cols = pred.data.shape
    if r == 0:
        return _node(np.asarray(0.0), (pred, target), lambda g: (np.zeros_like(pred.data),
                                                                 np.zeros_like(target.data)))
    d = pred.data - target.data
    per_row = _huber(d).mean(axis=1)
    out = np.asarray((w * per_row).sum() / r)

    def vjp(g):
        gd = float(g) * (w[:, None] / (r * d_cols)) * _huber_grad(d)
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


def corner_boxes(centers: Tensor, lrtb: Tensor) -> Tensor:
    """(rows, 4) corner boxes (x0, y0, x1, y1) from centers and edge distances."""
    c, e = centers.data, lrtb.data
    if c.ndim != 2 or c.shape[1] != 2 or e.shape != (c.shape[0], 4):
        raise ShapeError(f"corner_boxes: centers {c.shape} vs lrtb {e.shape}")
    out = np.stack([c[:, 0] - e[:, 0], c[:, 1] - e[:, 2],
                    c[:, 0] + e[:, 1], c[:, 1] + e[:, 3]], axis=1)

    def vjp(g):
        return (np.stack([g[:, 0] + g[:, 2], g[:, 1] + g[:, 3]], axis=1),
                np.stack([-g[:, 0], g[:, 2], -g[:, 1], g[:, 3]], axis=1))

    return _node(out, (centers, lrtb), vjp)


def giou2d_pairs(pred_corners: Tensor, target_corners: np.ndarray) -> Tensor:
    """(m, 1) GIoU of (m, 4) predicted vs constant target corner boxes.

    Target boxes must be non-degenerate; their positive areas bound union and
    hull away from zero, keeping the divisions safe. Every min/max routes its
    gradient to the predicted coordinate on a tie, and a zero-width
    intersection passes no gradient.
    """
    p = pred_corners.data
    tc = np.asarray(target_corners, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 4 or tc.shape != p.shape:
        raise ShapeError(f"giou2d_pairs: {p.shape} vs {tc.shape}")
    ax0, ay0, ax1, ay1 = (p[:, j:j + 1] for j in range(4))
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
    out = inter / union - (hull - union) / hull

    def vjp(g):
        # out = inter / union - (hull - union) / hull
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
        return (np.concatenate([gx0, gy0, gx1, gy1], axis=1),)

    return _node(out, (pred_corners,), vjp)


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
    """Stack matrices vertically; inverse of narrow_rows over the blocks."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat_rows: empty input")
    width = ts[0].data.shape[1]
    for t in ts:
        if t.data.ndim != 2 or t.data.shape[1] != width:
            raise ShapeError(f"concat_rows: widths differ ({t.data.shape} vs width {width})")
    out = np.concatenate([t.data for t in ts], axis=0)
    offsets = np.cumsum([0] + [t.data.shape[0] for t in ts])

    def vjp(g):
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
    offsets = np.cumsum([0] + [t.data.shape[1] for t in ts])

    def vjp(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] if t.requires_grad else None
                     for i, t in enumerate(ts))

    return _node(out, tuple(ts), vjp)


def narrow_rows(a: Tensor, start: int, length: int) -> Tensor:
    if a.data.ndim != 2 or start < 0 or start + length > a.data.shape[0]:
        raise ShapeError(f"narrow_rows: [{start}:{start + length}) of {a.data.shape}")
    out = a.data[start:start + length].copy()

    def vjp(g):
        gx = np.zeros_like(a.data)
        gx[start:start + length] = g
        return (gx,)

    return _node(out, (a,), vjp)


def narrow_cols(a: Tensor, start: int, length: int) -> Tensor:
    if a.data.ndim != 2 or start < 0 or start + length > a.data.shape[1]:
        raise ShapeError(f"narrow_cols: [{start}:{start + length}) of {a.data.shape}")
    out = a.data[:, start:start + length].copy()

    def vjp(g):
        gx = np.zeros_like(a.data)
        gx[:, start:start + length] = g
        return (gx,)

    return _node(out, (a,), vjp)


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

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
        if node._vjp is None:
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

    def __contains__(self, name: str) -> bool:
        return name in self._params

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

    def num_values(self) -> int:
        return sum(t.data.size for t in self._params.values())


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

    A truncated file, bytes after the last record, a name that appears
    twice, or a record count other than the header's raise ValueError naming
    the path and the record.
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
        name = blob[start:start + nlen].decode("utf-8")
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
    """Copy checkpoint values over an already-built store, name by name."""
    missing = [n for n in store.names() if n not in values]
    if missing:
        raise KeyError(f"checkpoint missing parameters: {missing[:3]}")
    for name, t in store.items():
        arr = values[name]
        if arr.shape != t.data.shape:
            raise ShapeError(f"checkpoint {name!r}: shape {arr.shape} vs {t.data.shape}")
        t.data = arr.copy()
