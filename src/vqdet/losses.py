"""The prediction rows and the set-prediction objective that scores them.

The heads decode query rows into one (rows, C + 12) prediction tensor, whose
column layout this module owns: C class logits, then 12 box columns in the
order of the first 12 columns of :class:`TargetArrays`' table (center, lrtb,
size3d, a raw (sin, cos) yaw, depth). The negative slices ``CENTER`` to
``DEPTH`` name the same columns of a prediction row and of a target's box
row whatever C is. :func:`decode_heads` makes the tensor as one tape op.

Every decoder layer's stacked rows are decoded at once, and a block is a set
of their rows: one layer's learnable queries of one group, or one noisy
block. The objective is DETR's (arXiv 2005.12872): sigmoid focal
classification over every row of the block (positives one-hot, the rest
background) and L1 / GIoU regression over the positive rows only, each term
normalized by the positive count, so magnitudes do not scale with the number
of objects. It is fixed, so its weights and focal parameters are the
constants ``W_*`` and ``FOCAL_*`` of this module; the matching cost reads
the class, center and GIoU weights.

A box row, target or noisy box, has one array form, :class:`TargetArrays`,
built once per step from the field arrays of ground truths or of noisy
boxes. A block's targets are the ground truths' bundle (a noisy block) or
its matched rows (``take``); the matching cost reads the same bundle, and
the query generator the noisy boxes'. :func:`corner_boxes` serves the
targets' table and the detections alike. :func:`giou_pairs` is the one
generalized IoU (arXiv 1902.09630), values and VJP from predicted centers
and edge distances against target corner boxes: :func:`component_loss`
sums it over the positive rows, and the matching cost broadcasts it over
every (row, target) pair, so the matcher and the loss score the same GIoU.

:func:`component_loss` scores one block as one tape node with a closed-form
gradient, reading the block's rows of the prediction tensor in place; its
VJP hands back one ``numerics.RowGrad`` of those rows. Callers add block
losses with one ``weighted_sum``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import GroundTruthObject, box_fields
from .numerics import RowGrad, ShapeError, Tensor, _node

# The weights of the objective's seven terms and its focal parameters.
W_CLS, W_CENTER, W_LRTB, W_GIOU, W_SIZE, W_ANGLE, W_DEPTH = 2.0, 5.0, 5.0, 2.0, 1.0, 1.0, 0.5
FOCAL_ALPHA, FOCAL_GAMMA = 0.25, 2.0

# The box columns of a prediction row: block widths, slices and per-column L1 weights.
BOX_WIDTHS = (2, 4, 3, 2, 1)
BOX_COLUMNS = sum(BOX_WIDTHS)
LOGITS = slice(None, -BOX_COLUMNS)
CENTER, LRTB, SIZE3D, ANGLE, DEPTH = BOX_SLICES = (
    slice(-12, -10), slice(-10, -6), slice(-6, -3), slice(-3, -1), slice(-1, None))
W_BOX = np.repeat([W_CENTER, W_LRTB, W_SIZE, W_ANGLE, W_DEPTH], BOX_WIDTHS)
# lrtb, size3d and depth are positive: the head op passes them through softplus
SOFTPLUS_COLUMNS = np.repeat([False, True, True, False, True], BOX_WIDTHS)


def corner_boxes(centers: np.ndarray, lrtb: np.ndarray) -> np.ndarray:
    """(rows, 4) corner boxes (x0, y0, x1, y1) from (rows, 2) centers and
    (rows, 4) distances to the left, right, top and bottom edges."""
    return np.concatenate([centers - lrtb[:, 0::2], centers + lrtb[:, 1::2]], axis=1)


def decode_heads(raw: Tensor, ref: Tensor) -> Tensor:
    """Prediction rows from the head layer's raw (rows, C + 12) output, as one node.

    lrtb, size3d and depth go through softplus, log(1 + e^x) without
    overflow. Row i of every block of R rows (one block per layer of a
    layer-major stack) adds row i of the (R, 2) reference points ``ref`` to
    its center. The VJP scales the softplus columns by sigmoid(x), reusing
    exp(-|x|), and sums the center gradient over the blocks for ``ref``.
    """
    x, r = raw.data, ref.data.shape[0]
    if (x.ndim != 2 or x.shape[1] <= BOX_COLUMNS or ref.data.shape != (r, 2) or not r
            or x.shape[0] % r):
        raise ShapeError(f"decode_heads: raw {x.shape} vs reference points {ref.data.shape}")
    box = x[:, -BOX_COLUMNS:]
    e = np.exp(-np.abs(box))
    out = x.copy()
    np.copyto(out[:, -BOX_COLUMNS:], np.maximum(box, 0.0) + np.log1p(e), where=SOFTPLUS_COLUMNS)
    out.reshape(-1, r, x.shape[1])[:, :, CENTER] += ref.data

    def vjp(g):
        g_raw = g.copy()
        g_box = g_raw[:, -BOX_COLUMNS:]
        np.multiply(g_box, np.where(box >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), out=g_box,
                    where=SOFTPLUS_COLUMNS)
        return g_raw, g[:, CENTER].reshape(-1, r, 2).sum(axis=0)

    return _node(out, (raw, ref), vjp)


def class_probs(pred: np.ndarray) -> np.ndarray:
    """Detached per-class sigmoid probabilities of prediction rows, for matching and inference."""
    return 1.0 / (1.0 + np.exp(-pred[:, LOGITS]))


class TargetArrays:
    """Box rows as the arrays the loss, the matcher and the query generator read.

    Row i belongs to object i: ``classes`` holds the (K,) class ids, and one
    (K, 16) ``table`` the rest, its first six columns the 2D box. ``boxes``
    views its 12 regression columns, laid out as a prediction row's box
    columns, and ``corners`` its (K, 4) corner boxes. The targets of matched
    objects are one :meth:`take`.
    """

    def __init__(self, classes: np.ndarray, table: np.ndarray):
        self.classes = classes
        self.table = table
        self.boxes = table[:, :BOX_COLUMNS]
        self.corners = table[:, BOX_COLUMNS:]

    @staticmethod
    def of(objects: Sequence[GroundTruthObject]) -> "TargetArrays":
        return TargetArrays.from_fields(*box_fields(objects))

    @staticmethod
    def from_fields(classes: np.ndarray, fields: np.ndarray) -> "TargetArrays":
        """The arrays of (K,) classes and (K, 11) fields in ``geometry.box_fields`` order."""
        theta = fields[:, 9:10]
        table = np.concatenate([fields[:, :9], np.sin(theta), np.cos(theta), fields[:, 10:],
                                corner_boxes(fields[:, 0:2], fields[:, 2:6])], axis=1)
        return TargetArrays(classes, table)

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


def component_loss(pred: Tensor, block: Sequence[int],
                   positives: Sequence[int], targets: TargetArrays) -> Tensor:
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
