"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force (sampling, rasterization,
enumeration, per-element loops) or composed from simpler tape operations, and
shares no code with the implementations under test.

The simpler tape operations themselves (matmul, transpose, narrow_rows,
narrow_cols, softmax_rows, divide, minimum, maximum, absolute) are defined
here too. The detector runs none of them, so they are reference ops recorded
with ``numerics._node``; ``tests/test_numerics.py`` checks their gradients
against central differences. ``giou2d`` is the scalar reference for the matcher's
vectorised GIoU.
"""

import itertools
import math

import numpy as np

from vqdet import numerics as nm
from vqdet.numerics import DegenerateMaskError, ShapeError, Tensor, _node


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


def absolute(a: Tensor) -> Tensor:
    return _node(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def giou2d(a, b) -> float:
    """Generalized IoU of two corner boxes (x_min, y_min, x_max, y_max)."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    if ax0 > ax1 or ay0 > ay1 or bx0 > bx1 or by0 > by1:
        raise ValueError("corner box has min > max")
    inter_w = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    inter_h = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = inter_w * inter_h
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = (bx1 - bx0) * (by1 - by0)
    union = area_a + area_b - inter
    hull = (max(ax1, bx1) - min(ax0, bx0)) * (max(ay1, by1) - min(ay0, by0))
    if hull <= 0.0:
        # both boxes degenerate to the same point or a shared segment
        return 1.0 if a == b else 0.0
    iou = inter / union if union > 0.0 else 0.0
    return iou - (hull - union) / hull


def points_in_oriented_box(points: np.ndarray, box) -> np.ndarray:
    """Boolean membership of (n, 3) camera-frame points in an oriented box."""
    dx = points[:, 0] - box.x
    dy = points[:, 1] - box.y
    dz = points[:, 2] - box.z
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    local_x = dx * c + dz * s
    local_z = -dx * s + dz * c
    return ((np.abs(local_x) <= box.l3d / 2)
            & (np.abs(dy) <= box.h3d / 2)
            & (np.abs(local_z) <= box.w3d / 2))


def monte_carlo_iou3d(a, b, n_samples: int, rng: np.random.Generator) -> float:
    """Volume-sampled IoU over the union's axis-aligned bounding box."""
    from vqdet.geometry import box3d_corners

    corners = np.vstack([box3d_corners(a), box3d_corners(b)])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n_samples, 3))
    in_a = points_in_oriented_box(pts, a)
    in_b = points_in_oriented_box(pts, b)
    n_either = int((in_a | in_b).sum())
    if n_either == 0:
        return 0.0
    return int((in_a & in_b).sum()) / n_either


def raster_giou2d(a, b, cell: float = 1e-3) -> float:
    """Pixel-counting GIoU of two corner boxes on a grid of the hull."""
    x0 = min(a[0], b[0])
    y0 = min(a[1], b[1])
    x1 = max(a[2], b[2])
    y1 = max(a[3], b[3])
    xs = np.arange(x0 + cell / 2, x1, cell)
    ys = np.arange(y0 + cell / 2, y1, cell)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")

    def inside(box):
        return (gx >= box[0]) & (gx <= box[2]) & (gy >= box[1]) & (gy <= box[3])

    in_a = inside(a)
    in_b = inside(b)
    inter = (in_a & in_b).sum()
    union = (in_a | in_b).sum()
    hull = gx.size
    iou = inter / union if union else 0.0
    return iou - (hull - union) / hull


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Optimal assignment cost by enumerating all injections of the small side."""
    n, m = cost.shape
    if n == 0 or m == 0:
        return 0.0
    if n <= m:
        return min(sum(cost[i, p[i]] for i in range(n))
                   for p in itertools.permutations(range(m), n))
    return min(sum(cost[p[j], j] for j in range(m))
               for p in itertools.permutations(range(n), m))


def loop_matching_cost(class_probs, centers, corner_boxes, gts, weights) -> np.ndarray:
    """Matching cost filled one ground truth at a time, scalar GIoU per query."""
    from vqdet.geometry import box2d_corners

    nq = class_probs.shape[0]
    cost = np.zeros((nq, len(gts)))
    for j, gt in enumerate(gts):
        cls_term = 1.0 - class_probs[:, gt.c]
        center_term = (np.abs(centers[:, 0] - gt.x_c)
                       + np.abs(centers[:, 1] - gt.y_c))
        gt_box = box2d_corners(gt.anchor())
        giou_term = np.array([1.0 - giou2d(tuple(corner_boxes[i]), gt_box)
                              for i in range(nq)])
        cost[:, j] = (weights.w_cls * cls_term + weights.w_center * center_term
                      + weights.w_giou * giou_term)
    return cost


# Loss terms as graphs of elementwise tape ops, one node per operation. The
# fused single-node ops in vqdet.numerics must match them in value and gradient:
# ``giou_loss`` is composite_corner_boxes, then composite_giou2d_pairs, then
# the mean GIoU term written out in composite_giou_loss.

def composite_focal_loss(logits, target_onehot, alpha, gamma, normalizer):
    t = np.asarray(target_onehot, dtype=np.float64)
    log_p = -nm.softplus(-logits)
    log_1mp = -nm.softplus(logits)
    pos = nm.exp(log_1mp * gamma) * log_p
    neg = nm.exp(log_p * gamma) * log_1mp
    weighted = pos * nm.Tensor(alpha * t) + neg * nm.Tensor((1.0 - alpha) * (1.0 - t))
    return nm.sum_all(weighted) * (-1.0 / normalizer)


def composite_giou2d_pairs(pred_corners, target_corners):
    tc = np.asarray(target_corners, dtype=np.float64)
    ax0, ay0, ax1, ay1 = (narrow_cols(pred_corners, j, 1) for j in range(4))
    bx0, by0, bx1, by1 = (nm.Tensor(tc[:, j:j + 1]) for j in range(4))
    inter_w = nm.relu(minimum(ax1, bx1) - maximum(ax0, bx0))
    inter_h = nm.relu(minimum(ay1, by1) - maximum(ay0, by0))
    inter = inter_w * inter_h
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = nm.Tensor((tc[:, 2] - tc[:, 0])[:, None] * (tc[:, 3] - tc[:, 1])[:, None])
    union = area_a + area_b - inter
    hull = (maximum(ax1, bx1) - minimum(ax0, bx0)) \
        * (maximum(ay1, by1) - minimum(ay0, by0))
    return divide(inter, union) - divide(hull - union, hull)


def composite_corner_boxes(centers, lrtb):
    cx, cy = (narrow_cols(centers, j, 1) for j in range(2))
    l, r, t, b = (narrow_cols(lrtb, j, 1) for j in range(4))
    return nm.concat_cols([cx - l, cy - t, cx + r, cy + b])


def composite_giou_loss(centers, lrtb, target_corners, normalizer):
    giou = composite_giou2d_pairs(composite_corner_boxes(centers, lrtb), target_corners)
    return nm.sum_all(giou) * (-1.0 / normalizer) + 1.0


def composite_l1_loss(pred, target, normalizer):
    return nm.sum_all(absolute(pred - nm.Tensor(target))) * (1.0 / normalizer)


def composite_multihead_attention(q, k, v, heads, allow=None):
    """Attention one group and one head at a time, from narrow, matmul and softmax nodes.

    Without ``allow`` all q rows attend to all k rows; with an (S, S)
    ``allow`` the rows form consecutive groups of S, each attending within
    itself under the mask.
    """
    d = q.data.shape[1]
    dh = d // heads
    s = q.data.shape[0] if allow is None else allow.shape[0]
    t = k.data.shape[0] if allow is None else s
    groups = []
    for g in range(q.data.shape[0] // s):
        qg = narrow_rows(q, g * s, s)
        kg, vg = narrow_rows(k, g * t, t), narrow_rows(v, g * t, t)
        contexts = []
        for h in range(heads):
            qh, kh, vh = (narrow_cols(x, h * dh, dh) for x in (qg, kg, vg))
            logits = matmul(qh, transpose(kh)) * (1.0 / math.sqrt(dh))
            contexts.append(matmul(softmax_rows(logits, allow), vh))
        groups.append(nm.concat_cols(contexts))
    return nm.concat_rows(groups)
