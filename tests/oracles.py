"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force (sampling, rasterization,
enumeration, per-element loops) or composed from simpler tape operations, and
shares no code with the implementations under test.

The simpler tape operations themselves (matmul, transpose, narrow_rows,
narrow_cols, softmax_rows, softplus, divide, minimum, maximum, absolute)
are defined here too. The detector runs none of them, so they are reference
ops recorded with ``numerics._node``; ``tests/test_numerics.py`` checks
their gradients against central differences. ``giou2d`` is the scalar reference for the matcher's
vectorised GIoU, and ``box2d_corners`` the scalar reference for the corner
boxes of ``losses.corner_boxes``.

``flagged_hungarian_scan`` is an earlier body of the Hungarian scan,
``scalar_box_noise`` the box noise of one row in scalar arithmetic and
``scalar_wrap_angle`` the yaw wrap of one float; the library's array forms
must equal them bit for bit.

``HalfHeadsWorker`` stands in for the worker thread with a fixed schedule:
its thread runs the first heads of an attention call, whenever it starts,
so a test knows that both threads computed some. ``LateWorker`` runs
nothing until the caller asks for a result, and ``real_worker`` gives the
worker thread itself. ``recorded`` walks a tape as the benchmark's tracer
counts it.

``one_node_block_loss`` is a block's loss as the one node the detector
recorded per block before ``losses.block_terms`` computed every block's
entries at once; the kernel and its block sums must equal it bit for bit.
It shares the objective's constants and ``giou_pairs`` with the library.
The focal, GIoU and L1 terms it fuses are kept here as the single-node ops
they were, and ``reference_block_loss`` composes them the way the detector
scored a block before that fusion, from the six column blocks of one
prediction tensor (``split_prediction``). They share only the stable sigmoid
helper and the objective's constants with the library, since the ops must
equal them bit for bit.

``site_local_denoising_loss`` is the denoising loss as it was when it made
its own ``block_terms`` call over the noisy blocks, apart from the detection
blocks' call; a step that scores both in one call must equal it bit for bit.
"""

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

from typing import Sequence

import numpy as np

from vqdet import numerics as nm
from vqdet.losses import (BOX_COLUMNS, BOX_SLICES, BOX_WIDTHS, CENTER, FOCAL_ALPHA, FOCAL_GAMMA,
                          LOGITS, LRTB, W_ANGLE, W_CENTER, W_CLS, W_DEPTH, W_GIOU, W_LRTB,
                          W_SIZE, TargetArrays, block_terms, component_loss, giou_pairs)
from vqdet.numerics import DegenerateMaskError, RowGrad, ShapeError, Tensor, _node, _sigmoid
from vqdet.vqd import BETA, DenoisingLoss, LatentDistribution


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) without overflow, in the float operations of :func:`softplus`."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x) without overflow; its derivative sigmoid(x) reuses exp(-|x|)."""
    e = np.exp(-np.abs(a.data))
    return _node(np.maximum(a.data, 0.0) + np.log1p(e), (a,),
                 lambda g: (g * np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e)),))


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
    corners = []
    for box in (a, b):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        for dx, dy, dz in itertools.product((-box.l3d / 2, box.l3d / 2),
                                            (-box.h3d / 2, box.h3d / 2),
                                            (-box.w3d / 2, box.w3d / 2)):
            corners.append((box.x + dx * c - dz * s, box.y + dy, box.z + dx * s + dz * c))
    corners = np.array(corners)
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


def flagged_hungarian_scan(cost: np.ndarray) -> list[int]:
    """Column matched to each row of an (n, m), n <= m, matrix: the solver as
    it was before its scan read Python floats and visited free columns only.

    Every column is tested against a ``used`` flag and the matrix is read as
    numpy scalars; the scan order and the strict-``<`` tie rule are the
    solver's, so it must return the same columns.
    """
    n, m = cost.shape
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = math.inf
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = [-1] * n
    for j in range(1, m + 1):
        if match[j] != 0:
            row_to_col[match[j] - 1] = j - 1
    return row_to_col


def scalar_wrap_angle(theta: float) -> float:
    """``geometry.wrap_angle`` for one float: wrap to (-pi, pi]; values in range pass through."""
    if -math.pi < theta <= math.pi:
        return theta
    t = math.fmod(theta + math.pi, 2.0 * math.pi)
    if t <= 0.0:
        t += 2.0 * math.pi
    return t - math.pi


def scalar_box_noise(gt, cfg, num_classes: int, shift_edges, flip_test: float, offset: int,
                     jitter):
    """``geometry.corrupt_boxes`` for one ground truth, one float at a time.

    It is fed one row of the step's draws: the six uniforms ``shift_edges``
    (center shift x and y, then the four edge scales), the flip test, the
    label offset (unread with one class) and the five uniforms ``jitter``
    (three dimension scales, yaw and depth).
    """
    from vqdet.geometry import GroundTruthObject

    u_x, u_y, s_l, s_r, s_t, s_b = (float(u) for u in shift_edges)
    half_x = (gt.l + gt.r) / 2.0
    half_y = (gt.t + gt.b) / 2.0
    dx = u_x * cfg.center_shift_scale * half_x
    dy = u_y * cfg.center_shift_scale * half_y
    box_range = cfg.box_scale_range
    l, r = gt.l * (1.0 + s_l * box_range), gt.r * (1.0 + s_r * box_range)
    t, b = gt.t * (1.0 + s_t * box_range), gt.b * (1.0 + s_b * box_range)
    x_c = gt.x_c + dx
    y_c = gt.y_c + dy
    x_c = min(max(x_c, -0.25 + l), 1.25 - r) if l + r <= 1.5 else gt.x_c
    y_c = min(max(y_c, -0.25 + t), 1.25 - b) if t + b <= 1.5 else gt.y_c

    c = gt.c
    if flip_test < cfg.label_flip_prob and num_classes > 1:
        c = (gt.c + 1 + int(offset)) % num_classes

    s_l3d, s_w3d, s_h3d, u_theta, u_d = (float(u) for u in jitter)
    dim_range = cfg.dim_scale_range
    l3d = min(max(gt.l3d * (1.0 + s_l3d * dim_range), 0.05), 29.9)
    w3d = min(max(gt.w3d * (1.0 + s_w3d * dim_range), 0.05), 29.9)
    h3d = min(max(gt.h3d * (1.0 + s_h3d * dim_range), 0.05), 29.9)
    theta = scalar_wrap_angle(gt.theta + u_theta * cfg.angle_jitter_rad)
    d = min(max(gt.d * (1.0 + u_d * cfg.depth_jitter_frac), 0.51), 119.0)
    return GroundTruthObject(c, x_c, y_c, l, r, t, b, l3d, w3d, h3d, theta, d)


def box2d_corners(gt) -> tuple[float, float, float, float]:
    """Corner box (x0, y0, x1, y1) of one ground truth's center and edge distances."""
    return (gt.x_c - gt.l, gt.y_c - gt.t, gt.x_c + gt.r, gt.y_c + gt.b)


def loop_matching_cost(class_probs, centers, corner_boxes, gts) -> np.ndarray:
    """Matching cost filled one ground truth at a time, scalar GIoU per query."""
    nq = class_probs.shape[0]
    cost = np.zeros((nq, len(gts)))
    for j, gt in enumerate(gts):
        cls_term = 1.0 - class_probs[:, gt.c]
        center_term = (np.abs(centers[:, 0] - gt.x_c)
                       + np.abs(centers[:, 1] - gt.y_c))
        gt_box = box2d_corners(gt)
        giou_term = np.array([1.0 - giou2d(tuple(corner_boxes[i]), gt_box)
                              for i in range(nq)])
        cost[:, j] = W_CLS * cls_term + W_CENTER * center_term + W_GIOU * giou_term
    return cost


# The loss terms that ``one_node_block_loss`` fuses, each as the single node
# it was before the fusion, and a block's loss composed from them: six row
# gathers, the seven terms and their weighted sum. ``reference_block_loss``
# takes the one-hot classes, box targets, corners and normaliser as plain
# arrays, and the op must equal it bit for bit.

def focal_loss(logits, target_onehot, alpha, gamma, normalizer):
    """Sigmoid focal loss summed over all entries, divided by ``normalizer``."""
    t = np.asarray(target_onehot, dtype=np.float64)
    z = logits.data
    log_p = -_softplus(-z)
    log_1mp = -_softplus(z)
    mod_pos = np.exp(log_1mp * gamma)
    mod_neg = np.exp(log_p * gamma)
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
        return (g_log_p * _sigmoid(-z) - g_log_1mp * _sigmoid(z),)

    return _node(out, (logits,), vjp)


def giou_loss(centers, lrtb, target_corners, normalizer):
    """``1 - sum(GIoU) / normalizer`` of (m, 2) centers and (m, 4) edge distances."""
    c, e = centers.data, lrtb.data
    tc = np.asarray(target_corners, dtype=np.float64)
    ax0, ay0 = c[:, :1] - e[:, 0:1], c[:, 1:] - e[:, 2:3]
    ax1, ay1 = c[:, :1] + e[:, 1:2], c[:, 1:] + e[:, 3:4]
    bx0, by0, bx1, by1 = (tc[:, j:j + 1] for j in range(4))
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
        g = float(g) * scale
        g_inter = g / union
        g_union = -g * inter / (union * union) + g / hull
        g_hull = -g * union / (hull * hull)
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
        return (np.concatenate([gx0 + gx1, gy0 + gy1], axis=1),
                np.concatenate([-gx0, gx1, -gy0, gy1], axis=1))

    return _node(out, (centers, lrtb), vjp)


def l1_loss(pred, target, normalizer):
    """Sum over all entries of |pred - target|, divided by ``normalizer``."""
    d = pred.data - np.asarray(target, dtype=np.float64)
    scale = 1.0 / normalizer
    out = np.asarray(np.abs(d).sum()) * scale
    return _node(out, (pred,), lambda g: (float(g) * scale * np.sign(d),))


def reference_block_loss(logits, boxes, block, positive_rows, onehot, box_targets,
                         target_corners, normalizer):
    """``one_node_block_loss`` as 14 nodes: gathers, single-node terms, their sum."""
    cls = focal_loss(nm.gather_rows(logits, list(block)), onehot, FOCAL_ALPHA, FOCAL_GAMMA,
                     normalizer)
    if not len(positive_rows):
        return nm.weighted_sum([cls], [W_CLS])
    centers, lrtb, size3d, angle, depth = (nm.gather_rows(b, list(positive_rows))
                                           for b in boxes)
    t_center, t_lrtb, t_size, t_angle, t_depth = box_targets
    return nm.weighted_sum(
        [cls, l1_loss(centers, t_center, normalizer), l1_loss(lrtb, t_lrtb, normalizer),
         giou_loss(centers, lrtb, target_corners, normalizer),
         l1_loss(size3d, t_size, normalizer), l1_loss(angle, t_angle, normalizer),
         l1_loss(depth, t_depth, normalizer)],
        [W_CLS, W_CENTER, W_LRTB, W_GIOU, W_SIZE, W_ANGLE, W_DEPTH])


# ``losses.component_loss`` as it was before the row kernel, one node per block
# that computed its own entries and summed them: ``losses.block_terms`` and the
# block sums must equal it bit for bit. Its focal helper returned the sum, and
# ``W_BOX`` weighs each box column's L1 gradient.

W_BOX = np.repeat([W_CENTER, W_LRTB, W_SIZE, W_ANGLE, W_DEPTH], BOX_WIDTHS)

def _focal_sum(z: np.ndarray, t: np.ndarray):
    """Sigmoid focal loss of logits ``z`` against targets ``t``, summed over all entries.

    Stable form: log p = -softplus(-z) and log(1-p) = -softplus(z), with the
    modulating factors written as exp(gamma * log(.)) <= 1; the softplus and
    sigmoid terms share e = exp(-|z|). Returns the sum and a VJP mapping the
    gradient ``gs`` of the sum to that of ``z``.
    """
    e = np.exp(-np.abs(z))
    log1p_e = np.log1p(e)
    log_p = -(np.maximum(-z, 0.0) + log1p_e)
    log_1mp = -(np.maximum(z, 0.0) + log1p_e)
    mod_pos = np.exp(log_1mp * FOCAL_GAMMA)  # (1 - p)^gamma
    mod_neg = np.exp(log_p * FOCAL_GAMMA)    # p^gamma
    w_pos = FOCAL_ALPHA * t
    w_neg = (1.0 - FOCAL_ALPHA) * (1.0 - t)
    weighted = mod_pos * log_p * w_pos + mod_neg * log_1mp * w_neg

    def vjp(gs):
        g_pos = gs * w_pos
        g_neg = gs * w_neg
        g_log_p = g_pos * mod_pos + g_neg * log_1mp * mod_neg * FOCAL_GAMMA
        g_log_1mp = g_pos * log_p * mod_pos * FOCAL_GAMMA + g_neg * mod_neg
        # d log p / dz = sigmoid(-z), d log(1-p) / dz = -sigmoid(z)
        one_pe = 1.0 + e
        large, small = 1.0 / one_pe, e / one_pe  # sigmoid(|z|) and sigmoid(-|z|)
        return (g_log_p * np.where(z <= 0, large, small)
                - g_log_1mp * np.where(z >= 0, large, small))

    return weighted.sum(), vjp


def _unique_rows(rows: Sequence[int], count: int, what: str):
    """Index of unique ``rows`` out of ``count``: a slice for a step-1 range, else an array."""
    if isinstance(rows, range) and rows.step == 1:
        if rows and (rows.start < 0 or rows.stop > count):
            raise IndexError(f"component_loss: {what} {rows} out of range for {count} rows")
        return slice(rows.start, rows.stop)
    ind = np.asarray(rows, dtype=np.int64)
    if ind.size and (ind.min() < 0 or ind.max() >= count):
        raise IndexError(f"component_loss: {what} out of range for {count} rows")
    if len(set(ind.tolist())) != ind.size:
        raise ValueError(f"component_loss: {what} repeat a row")
    return ind


def one_node_block_loss(pred: Tensor, block: Sequence[int],
                        positives: Sequence[int], targets) -> Tensor:
    """Set-prediction loss of one block of prediction rows of ``pred``, as one node.

    ``block`` lists the block's rows of ``pred``, and ``positives[i]`` is a
    position in ``block``, the row supervised toward target i of
    ``targets``; each list holds unique entries. The op reads those rows in
    place. Its value adds seven terms, each divided by the normaliser
    max(1, len(targets)), with the ``W_*`` weights in this order:

    - sigmoid focal loss (``FOCAL_ALPHA``, ``FOCAL_GAMMA``) of the block's
      logits against the one-hot target classes, every other row of the
      block background;
    - L1 of the positive centers and lrtb against their targets;
    - one minus GIoU, summed over the positive rows, of the corner boxes of
      their centers and lrtb against the targets' corner boxes, computed as
      the constant len(positives) / normaliser (exactly 1.0 with positives,
      0.0 without) minus the normalised GIoU sum;
    - L1 of the positive size3d, angle and depth against their targets.

    Without positives every box term sums to 0 and only the focal term
    counts. The VJP hands back one ``RowGrad`` of the block's rows: the
    focal gradient in the logit columns, the box terms' in the positive
    rows' box columns. Each term's value and gradient are bitwise those of
    the term written as its own node; the targets receive no gradient, and
    the L1 gradient at pred == target is 0.
    """
    x = pred.data
    if x.ndim != 2 or x.shape[1] <= BOX_COLUMNS:
        raise ShapeError(f"component_loss: prediction rows {x.shape} have no class column")
    block_ind = _unique_rows(block, x.shape[0], "block rows")
    at = _unique_rows(positives, len(block), "positives")
    if len(positives) != len(targets):
        raise ValueError(f"{len(positives)} positives vs {len(targets)} targets")
    rows = x[block_ind]
    onehot = np.zeros((len(block), x.shape[1] - BOX_COLUMNS))
    onehot[at] = np.eye(onehot.shape[1])[targets.classes]
    normalizer = float(max(1, len(targets)))
    focal, focal_vjp = _focal_sum(rows[:, LOGITS], onehot)
    cls_scale, l1_scale = -1.0 / normalizer, 1.0 / normalizer
    box = rows[at, -BOX_COLUMNS:]
    diff = box - targets.boxes
    l1 = [np.abs(diff[:, cols]).sum() * l1_scale for cols in BOX_SLICES]
    giou, giou_vjp = giou_pairs(box[:, CENTER], box[:, LRTB], targets.corners)
    # the terms in weight order, added left to right
    out = (focal * cls_scale * W_CLS + l1[0] * W_CENTER + l1[1] * W_LRTB
           + (giou.sum() * cls_scale + len(positives) / normalizer) * W_GIOU
           + l1[2] * W_SIZE + l1[3] * W_ANGLE + l1[4] * W_DEPTH)

    def vjp(g):
        g = float(g)
        rows_g = np.zeros((len(block), x.shape[1]))
        rows_g[:, LOGITS] = focal_vjp(g * W_CLS * cls_scale)
        g_box = g * W_BOX * l1_scale * np.sign(diff)
        for cols, g_giou in zip((CENTER, LRTB), giou_vjp(g * W_GIOU * cls_scale)):
            g_box[:, cols] += g_giou
        rows_g[at, -BOX_COLUMNS:] = g_box
        return (RowGrad(block_ind, rows_g),)

    return _node(np.asarray(out), (pred,), vjp)


def site_local_denoising_loss(pred: Tensor, layer_blocks: Sequence[Sequence[Sequence[int]]],
                              targets: TargetArrays, dist: LatentDistribution) -> DenoisingLoss:
    """Reconstruction over the noisy blocks of ``pred`` plus ``BETA`` times the KL term.

    ``layer_blocks[l]`` lists layer l's noisy blocks, each block its rows of
    ``pred``; row i of a block reconstructs target i of ``targets``, and a
    block of another length raises ValueError. One ``block_terms`` call sums
    every block's terms, one ``component_loss`` per block weighs its row, and
    reconstruction averages a layer's blocks and sums the layers.
    """
    zero = nm.Tensor(0.0)
    layers = [blocks for blocks in layer_blocks if blocks]
    flat = [block for blocks in layers for block in blocks]
    for block in flat:
        if len(block) != len(targets):
            raise ValueError(f"denoising_loss: {len(block)} rows of a noisy block vs "
                             f"{len(targets)} targets")
    terms, scored = block_terms(pred, flat, [range(len(block)) for block in flat],
                                targets.take(np.tile(np.arange(len(targets)), len(flat))))
    scored = iter(scored)
    sums = [nm.weighted_sum([component_loss(terms, next(scored)) for _ in blocks],
                            [1.0] * len(blocks)) for blocks in layers]
    recon = nm.weighted_sum(sums, [1.0 / len(blocks) for blocks in layers]) if layers else zero

    if dist.log_var is None:
        return DenoisingLoss(total=recon, reconstruction=recon, kl=zero)
    kl = nm.gaussian_kl(dist.mu, dist.log_var)
    total = nm.weighted_sum([recon, kl], [1.0, BETA])
    return DenoisingLoss(total=total, reconstruction=recon, kl=kl)


# Loss terms as graphs of elementwise tape ops, one node per operation. The
# single-node terms above must match them in value and gradient:
# ``giou_loss`` is composite_corner_boxes, then composite_giou2d_pairs, then
# the mean GIoU term written out in composite_giou_loss.

def composite_focal_loss(logits, target_onehot, alpha, gamma, normalizer):
    t = np.asarray(target_onehot, dtype=np.float64)
    log_p = -softplus(-logits)
    log_1mp = -softplus(logits)
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


def split_prediction(pred):
    """The class logits and the five box tensors of a (rows, C + 12) prediction
    tensor, as narrow nodes."""
    c = pred.data.shape[1] - 12
    bounds = [0, c, c + 2, c + 6, c + 9, c + 11, c + 12]
    return [narrow_cols(pred, lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def composite_decode_heads(raw, ref):
    """``losses.decode_heads`` from column narrows, softplus, a tiled ``ref`` and an add."""
    logits, center, lrtb, size3d, angle, depth = split_prediction(raw)
    tiled = nm.concat_rows([ref] * (raw.data.shape[0] // ref.data.shape[0]))
    return nm.concat_cols([logits, center + tiled, softplus(lrtb), softplus(size3d), angle,
                           softplus(depth)])


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


class HalfHeadsWorker:
    """A worker for ``numerics._worker`` that always runs the first ``take`` heads.

    An attention call's job, ``submit(kernel, head_slices)``, takes that
    many of the shared head slices at once and runs the kernel over them on
    its own thread; the caller runs the rest. No returned handle can be
    cancelled, so the caller waits for the thread. ``calls`` lists the
    submitted kernels by name, in submission order.
    """

    def __init__(self, take: int = 2):
        self.take = take
        self.pool = ThreadPoolExecutor(max_workers=1)
        self.calls = []

    def submit(self, kernel, head_slices):
        self.calls.append(kernel.__name__)
        future = self.pool.submit(kernel, iter(list(itertools.islice(head_slices, self.take))))
        return SimpleNamespace(cancel=lambda: False, result=future.result)


def recorded(roots, stop=()) -> list[Tensor]:
    """Recorded tape nodes reachable from ``roots`` and not from ``stop``: the
    tensors with parents, as ``bench/tracing.walk_tape`` counts them."""
    def walk(start):
        seen, todo = {}, list(start)
        while todo:
            t = todo.pop()
            if t._parents and id(t) not in seen:
                seen[id(t)] = t
                todo.extend(t._parents)
        return seen
    stopped = walk(stop)
    return [t for key, t in walk(roots).items() if key not in stopped]


def real_worker():
    """The module's worker thread, or a new one where the process may use only one CPU."""
    return nm._worker or nm._Worker()


class LateWorker:
    """A worker for ``numerics._worker`` that runs a job only when its result is asked for.

    Its handles cannot be cancelled, so the caller runs every head of an
    attention call, and the job then finds no head left.
    """

    def submit(self, fn, *args):
        return SimpleNamespace(cancel=lambda: False, result=functools.cache(lambda: fn(*args)))
