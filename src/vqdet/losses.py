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
generator the noisy boxes'. :func:`corner_boxes` serves the targets' table
and the detections alike.

:func:`giou_pairs` is the one generalized IoU (arXiv 1902.09630): one
kernel, from predicted centers and edge distances against target corner
boxes, returns the values and their VJP. :func:`component_loss` sums it
over the positive rows, and the matching cost broadcasts it over every
(row, target) pair, so the matcher and the loss score the same GIoU.

:func:`component_loss` scores one block as one tape op with a closed-form
gradient: it reads the block's logits and its positive rows of the five
regression tensors in place, computes the focal, GIoU and five L1 terms and
adds them with the ``W_*`` weights, so it records one tape node. Its VJP
hands back only those rows' gradients, as ``numerics.RowGrad`` values.
Callers add block losses with one ``weighted_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math
import numpy as np

from .geometry import GroundTruthObject
from .numerics import RowGrad, ShapeError, Tensor, _node

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


def giou_pairs(c: np.ndarray, e: np.ndarray, tc: np.ndarray):
    """GIoU of predicted and target corner boxes, pair by pair.

    A predicted corner box is center ``c`` minus its left/top and plus its
    right/bottom distance ``e``, scored against the target corner box
    ``tc``. Corners are packed with x and y on the last axis: ``lo`` and
    ``hi`` are the prediction's (x0, y0) and (x1, y1), so one expression
    serves both axes. The leading axes broadcast: (k, 2), (k, 4) and (k, 4)
    arrays score k pairs, and (n, 1, 2), (n, 1, 4) and (m, 4) arrays every
    (prediction, target) pair, the matching cost's (n, m) grid. Target boxes
    must have positive extent; their areas bound union and hull away from
    zero, keeping the divisions safe. Every min/max routes its gradient to
    the predicted coordinate on a tie, and a zero-width intersection passes
    no gradient. Returns the GIoU values and a VJP, for k pairs, mapping
    their gradient ``g`` to those of ``c`` and ``e``.
    """
    lo, hi = c - e[..., 0::2], c + e[..., 1::2]
    tlo, thi = tc[..., :2], tc[..., 2:]
    # take_* marks where the predicted coordinate wins each min/max
    take_i1, take_i0 = hi <= thi, lo >= tlo
    take_h1, take_h0 = hi >= thi, lo <= tlo
    raw = np.where(take_i1, hi, thi) - np.where(take_i0, lo, tlo)
    keep = raw > 0.0
    inter_wh = np.where(keep, raw, 0.0)
    inter = inter_wh[..., 0] * inter_wh[..., 1]
    wh, twh = hi - lo, thi - tlo
    union = wh[..., 0] * wh[..., 1] + twh[..., 0] * twh[..., 1] - inter
    hull_wh = np.where(take_h1, hi, thi) - np.where(take_h0, lo, tlo)
    hull = hull_wh[..., 0] * hull_wh[..., 1]
    giou = inter / union - (hull - union) / hull

    def vjp(g):
        # giou = inter / union - (hull - union) / hull; g is a scalar or one per pair
        g_inter = g / union
        g_union = -g * inter / (union * union) + g / hull
        g_hull = -g * union / (hull * hull)
        # union = w * h + area of the target - inter; each width takes the other height
        g_inter = g_inter - g_union
        g_inter_wh = g_inter[:, None] * inter_wh[:, ::-1] * keep
        g_hull_wh = g_hull[:, None] * hull_wh[:, ::-1]
        g_wh = g_union[:, None] * wh[:, ::-1]
        g_lo = -g_inter_wh * take_i0 - g_wh - g_hull_wh * take_h0
        g_hi = g_inter_wh * take_i1 + g_wh + g_hull_wh * take_h1
        # (x0, y0) = c - (l, t) and (x1, y1) = c + (r, b)
        return g_lo + g_hi, np.stack([-g_lo, g_hi], axis=2).reshape(-1, 4)

    return giou, vjp


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
    are not parents. The VJP gives each parent a ``RowGrad`` of the block's
    or the positive rows. Each term's value and gradient are bitwise those
    of the term written as its own node; the targets receive no gradient,
    and the L1 gradient at pred == target is 0.
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
        giou, giou_vjp = giou_pairs(preds[0], preds[1], targets.corners)
        # the terms in weight order, added left to right
        out = (out + l1[0] * W_CENTER + l1[1] * W_LRTB + (giou.sum() * cls_scale + 1.0) * W_GIOU
               + l1[2] * W_SIZE + l1[3] * W_ANGLE + l1[4] * W_DEPTH)

    def vjp(g):
        g = float(g)
        row_grads = [focal_vjp(g * W_CLS * cls_scale)]
        if len(parents) > 1:
            row_grads += [g * w * l1_scale * np.sign(d)
                          for w, d in zip((W_CENTER, W_LRTB, W_SIZE, W_ANGLE, W_DEPTH), diffs)]
            g_centers, g_lrtb = giou_vjp(g * W_GIOU * cls_scale)
            row_grads[1] += g_centers
            row_grads[2] += g_lrtb
        return tuple(RowGrad(rows, rows_g)
                     for rows, rows_g in zip((block_ind, *[pos] * 5), row_grads))

    return _node(np.asarray(out), parents, vjp)
