"""The set-prediction objective that scores detection and denoising blocks.

The head outputs of every decoder layer's stacked rows are one
:class:`PredictionRows` bundle, and a block is a set of its rows: one
layer's learnable queries of one group, or one noisy block. The objective is
DETR's (arXiv 2005.12872): sigmoid focal classification over every row of
the block (positives one-hot, the rest background) and L1 / GIoU regression
over the positive rows only, each term normalized by the positive count, so
magnitudes do not scale with the number of objects. It is fixed, so its
weights and focal parameters are the constants ``W_*`` and ``FOCAL_*`` of
this module; the matching cost reads the class, center and GIoU weights.

A box row, target or noisy box, has one array form, :class:`TargetArrays`,
built once per step from a list of :class:`GroundTruthObject`. A block's
targets are the ground truths' bundle (a noisy block) or its matched rows
(``take``); the matching cost reads the same bundle, and the query
generator the noisy boxes'. :func:`corner_boxes` serves predictions and
targets alike.

:func:`component_loss` scores one block as one tape op with a closed-form
gradient: it reads the block's logits and its positive rows of the five
regression tensors in place, computes the focal, GIoU and five L1 terms and
adds them with the ``W_*`` weights, so it records one tape node. Callers add
block losses with one ``weighted_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math
import numpy as np

from .geometry import GroundTruthObject
from .numerics import ShapeError, Tensor, _node, _sigmoid, _softplus

# The weights of the objective's seven terms and its focal parameters.
W_CLS, W_CENTER, W_LRTB, W_GIOU, W_SIZE, W_ANGLE, W_DEPTH = 2.0, 5.0, 5.0, 2.0, 1.0, 1.0, 0.5
FOCAL_ALPHA, FOCAL_GAMMA = 0.25, 2.0


def corner_boxes(centers: np.ndarray, lrtb: np.ndarray) -> np.ndarray:
    """(rows, 4) corner boxes (x0, y0, x1, y1) from (rows, 2) centers and
    (rows, 4) distances to the left, right, top and bottom edges."""
    return np.stack([centers[:, 0] - lrtb[:, 0], centers[:, 1] - lrtb[:, 2],
                     centers[:, 0] + lrtb[:, 1], centers[:, 1] + lrtb[:, 3]], axis=1)


@dataclass
class PredictionRows:
    """Decoded head outputs for a stack of query rows.

    class_logits are pre-sigmoid; angle is a raw (sin, cos) pair; lrtb and
    depth are post-activation (nonnegative / positive).
    """

    class_logits: Tensor  # (rows, num_classes)
    centers: Tensor       # (rows, 2)
    lrtb: Tensor          # (rows, 4)
    size3d: Tensor        # (rows, 3)
    angle: Tensor         # (rows, 2)
    depth: Tensor         # (rows, 1)

    def class_probs(self) -> np.ndarray:
        """Detached per-class sigmoid probabilities, for matching/inference."""
        return 1.0 / (1.0 + np.exp(-self.class_logits.data))

    def corner_boxes_array(self) -> np.ndarray:
        """Detached (rows, 4) corner boxes, for matching."""
        return corner_boxes(self.centers.data, self.lrtb.data)


class TargetArrays:
    """Box rows as the arrays the loss, the matcher and the query generator read.

    Row i belongs to object i: ``classes`` holds the (K,) class ids, and one
    (K, 16) ``table`` the rest. ``boxes`` are views of its five regression
    targets in head order (center, lrtb, size3d, (sin, cos) yaw and depth)
    and ``corners`` of its (K, 4) corner boxes; its first six columns are
    the 2D box. The targets of matched objects are one :meth:`take`.
    """

    def __init__(self, classes: np.ndarray, table: np.ndarray):
        self.classes = classes
        self.table = table
        self.boxes = (table[:, 0:2], table[:, 2:6], table[:, 6:9], table[:, 9:11],
                      table[:, 11:12])
        self.corners = table[:, 12:16]

    @staticmethod
    def of(objects: Sequence[GroundTruthObject]) -> "TargetArrays":
        rows = np.array([[gt.x_c, gt.y_c, gt.l, gt.r, gt.t, gt.b, gt.l3d, gt.w3d, gt.h3d,
                          math.sin(gt.theta), math.cos(gt.theta), gt.d]
                         for gt in objects], dtype=np.float64).reshape(len(objects), 12)
        table = np.concatenate([rows, corner_boxes(rows[:, 0:2], rows[:, 2:6])], axis=1)
        return TargetArrays(np.array([gt.c for gt in objects], dtype=np.intp), table)

    def take(self, indices: Sequence[int]) -> "TargetArrays":
        """The targets of objects ``indices``, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        return TargetArrays(self.classes[idx], self.table[idx])

    def __len__(self) -> int:
        return len(self.classes)


def _focal_sum(z: np.ndarray, t: np.ndarray):
    """Sigmoid focal loss of logits ``z`` against targets ``t``, summed over all entries.

    Stable form: log p = -softplus(-z) and log(1-p) = -softplus(z), with the
    modulating factors written as exp(gamma * log(.)) <= 1. Returns the sum
    and a VJP mapping the gradient ``gs`` of the sum to that of ``z``.
    """
    log_p = -_softplus(-z)
    log_1mp = -_softplus(z)
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
        return g_log_p * _sigmoid(-z) - g_log_1mp * _sigmoid(z)

    return weighted.sum(), vjp


def _giou_sum(c: np.ndarray, e: np.ndarray, tc: np.ndarray):
    """Sum over rows of the GIoU of predicted and target corner boxes.

    Row i's predicted corner box (x0, y0, x1, y1) is center ``c[i]`` minus
    its left/top and plus its right/bottom distance ``e[i]``, scored against
    the corner box ``tc[i]``. Target boxes must be non-degenerate; their
    positive areas bound union and hull away from zero, keeping the divisions
    safe. Every min/max routes its gradient to the predicted coordinate on a
    tie, and a zero-width intersection passes no gradient. Returns the sum and
    a VJP mapping the gradient ``g`` of the sum to those of ``c`` and ``e``.
    """
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

    def vjp(g):
        # giou = inter / union - (hull - union) / hull, the same g for every row
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

    return giou.sum(), vjp


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


def component_loss(pred: PredictionRows, block: Sequence[int],
                   positive_rows: Sequence[int], targets: TargetArrays) -> Tensor:
    """Set-prediction loss of one block of rows of ``pred``, as one node.

    ``block`` lists the block's rows of ``pred``, and ``positive_rows[i]``,
    one of them, is supervised toward target i of ``targets``; each list
    holds unique rows. The op reads those rows in place. Its value adds
    seven terms, each divided by the normaliser max(1, len(targets)), with
    the ``W_*`` weights in this order:

    - sigmoid focal loss (``FOCAL_ALPHA``, ``FOCAL_GAMMA``) of the block's
      logits against the one-hot target classes, every other row of the
      block background;
    - L1 of the positive centers and lrtb against their targets;
    - one minus GIoU, summed over the positive rows, of the corner boxes of
      their centers and lrtb against the targets' corner boxes;
    - L1 of the positive size3d, angle and depth against their targets.

    Without positive rows only the focal term remains and the box tensors
    are not parents. Each term's value and gradient are bitwise those of the
    term written as its own node; the targets receive no gradient, and the
    L1 gradient at pred == target is 0.
    """
    logits = pred.class_logits
    boxes = [pred.centers, pred.lrtb, pred.size3d, pred.angle, pred.depth]
    z = logits.data
    block_ind = _unique_rows(block, z.shape[0], "block rows")
    pos = _unique_rows(positive_rows, z.shape[0], "positive rows")
    if len(positive_rows) != len(targets):
        raise ValueError(f"{len(positive_rows)} positive rows vs {len(targets)} targets")
    outside = [row for row in positive_rows if row not in block]
    if outside:
        raise ValueError(f"component_loss: positive rows {outside} are not in the block")
    onehot = np.zeros((len(block), z.shape[1]))
    onehot[[block.index(row) for row in positive_rows], targets.classes] = 1.0
    normalizer = float(max(1, len(targets)))
    focal, focal_vjp = _focal_sum(z[block_ind], onehot)
    cls_scale = -1.0 / normalizer
    out = focal * cls_scale * W_CLS
    parents = (logits,)
    if len(positive_rows):
        preds = [h.data[pos] for h in boxes]
        if any(p.shape != a.shape for p, a in zip(preds, targets.boxes)):
            raise ShapeError(f"component_loss: positive rows {[p.shape for p in preds]} vs "
                             f"targets {[a.shape for a in targets.boxes]}")
        parents = (logits, *boxes)
        diffs = [p - a for p, a in zip(preds, targets.boxes)]
        l1_scale = 1.0 / normalizer
        l1 = [np.abs(d).sum() * l1_scale for d in diffs]
        giou, giou_vjp = _giou_sum(preds[0], preds[1], targets.corners)
        # the terms in weight order, added left to right
        out = (out + l1[0] * W_CENTER + l1[1] * W_LRTB + (giou * cls_scale + 1.0) * W_GIOU
               + l1[2] * W_SIZE + l1[3] * W_ANGLE + l1[4] * W_DEPTH)

    def vjp(g):
        g = float(g)
        row_grads = [focal_vjp(g * W_CLS * cls_scale)]
        if len(parents) > 1:
            row_grads += [g * w * l1_scale * np.sign(d)
                          for w, d in zip((W_CENTER, W_LRTB, W_SIZE, W_ANGLE, W_DEPTH), diffs)]
            g_centers, g_lrtb = giou_vjp(g * W_GIOU * cls_scale)
            row_grads[1] = row_grads[1] + g_centers
            row_grads[2] = row_grads[2] + g_lrtb
        grads = []
        for parent, rows, rows_g in zip(parents, (block_ind, *[pos] * 5), row_grads):
            full = None
            if parent.requires_grad:
                full = np.zeros_like(parent.data)
                full[rows] += rows_g  # not =: a -0.0 lands as +0.0, as in gather_rows
            grads.append(full)
        return tuple(grads)

    return _node(np.asarray(out), parents, vjp)
