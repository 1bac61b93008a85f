"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force (sampling, rasterization,
enumeration, per-element loops) or composed from simpler tape operations, and
shares no code with the implementations under test.
"""

import itertools
import math

import numpy as np


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
    from vqdet.geometry import box2d_corners, giou2d

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
# fused single-node ops in vqdet.numerics must match them in value and gradient.

def composite_focal_loss(logits, target_onehot, alpha, gamma, normalizer):
    from vqdet import numerics as nm

    t = np.asarray(target_onehot, dtype=np.float64)
    log_p = -nm.softplus(-logits)
    log_1mp = -nm.softplus(logits)
    pos = nm.exp(log_1mp * gamma) * log_p
    neg = nm.exp(log_p * gamma) * log_1mp
    weighted = pos * nm.Tensor(alpha * t) + neg * nm.Tensor((1.0 - alpha) * (1.0 - t))
    return nm.sum_all(weighted) * (-1.0 / normalizer)


def composite_giou2d_pairs(pred_corners, target_corners):
    from vqdet import numerics as nm

    tc = np.asarray(target_corners, dtype=np.float64)
    ax0, ay0, ax1, ay1 = (nm.narrow_cols(pred_corners, j, 1) for j in range(4))
    bx0, by0, bx1, by1 = (nm.Tensor(tc[:, j:j + 1]) for j in range(4))
    inter_w = nm.relu(nm.minimum(ax1, bx1) - nm.maximum(ax0, bx0))
    inter_h = nm.relu(nm.minimum(ay1, by1) - nm.maximum(ay0, by0))
    inter = inter_w * inter_h
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = nm.Tensor((tc[:, 2] - tc[:, 0])[:, None] * (tc[:, 3] - tc[:, 1])[:, None])
    union = area_a + area_b - inter
    hull = (nm.maximum(ax1, bx1) - nm.minimum(ax0, bx0)) \
        * (nm.maximum(ay1, by1) - nm.minimum(ay0, by0))
    return nm.divide(inter, union) - nm.divide(hull - union, hull)


def composite_corner_boxes(centers, lrtb):
    from vqdet import numerics as nm

    cx, cy = (nm.narrow_cols(centers, j, 1) for j in range(2))
    l, r, t, b = (nm.narrow_cols(lrtb, j, 1) for j in range(4))
    return nm.concat_cols([cx - l, cy - t, cx + r, cy + b])


def composite_l1_loss(pred, target, normalizer):
    from vqdet import numerics as nm

    return nm.sum_all(nm.absolute(pred - nm.Tensor(target))) * (1.0 / normalizer)
