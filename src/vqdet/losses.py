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
and edge distances against target corner boxes: the loss scores it over
the positive rows, and the matching cost broadcasts it over every (row,
target) pair, so the matcher and the loss score the same GIoU.

The objective is two ops with closed-form gradients. The row kernel
:func:`block_terms` scores every block of a training step at once, the
detection and the noisy blocks alike, as one tape node: it computes the
focal entries of the blocks' rows and the L1 and GIoU entries of their
positive rows, and returns one row per block of its seven term sums. Its
VJP spreads each sum's gradient over its entries, runs each term's
expression once over every entry and hands back one ``numerics.RowGrad``
of the blocks' rows. Then :func:`component_loss`, one node per block,
weighs its row with the normaliser and the ``W_*`` weights. An entry goes
through the float operations it would alone, and a sum reads its entries
in the order of a block scored alone, so a block's loss and gradient are
bitwise the same whichever blocks share its kernel call. Callers add
block losses with one ``weighted_sum``.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import GroundTruthObject, box_fields
from .numerics import RowGrad, ShapeError, Tensor, _node

# The weights of the objective's seven terms and its focal parameters.
W_CLS, W_CENTER, W_LRTB, W_GIOU, W_SIZE, W_ANGLE, W_DEPTH = 2.0, 5.0, 5.0, 2.0, 1.0, 1.0, 0.5
FOCAL_ALPHA, FOCAL_GAMMA = 0.25, 2.0

# The box columns of a prediction row: block widths and slices.
BOX_WIDTHS = (2, 4, 3, 2, 1)
BOX_COLUMNS = sum(BOX_WIDTHS)
LOGITS = slice(None, -BOX_COLUMNS)
CENTER, LRTB, SIZE3D, ANGLE, DEPTH = BOX_SLICES = (
    slice(-12, -10), slice(-10, -6), slice(-6, -3), slice(-3, -1), slice(-1, None))
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
    """Detached per-class sigmoid probabilities of prediction rows, for matching and inference;
    exp overflows for logits below about -709, giving the correct 0.0 unreported."""
    with np.errstate(over="ignore"):
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


def _focal_terms(z: np.ndarray, t: np.ndarray):
    """Sigmoid focal loss of logits ``z`` against targets ``t``, entry by entry.

    Stable form: log p = -softplus(-z) and log(1-p) = -softplus(z), with the
    modulating factors written as exp(gamma * log(.)) <= 1; the softplus and
    sigmoid terms share e = exp(-|z|). Returns the entries and a VJP mapping
    their gradient ``gs``, one per entry, to that of ``z``.
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

    return weighted, vjp


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


def _indices(rows: Sequence[int]) -> np.ndarray:
    if isinstance(rows, range):
        return np.arange(rows.start, rows.stop, rows.step)
    return np.asarray(rows, dtype=np.intp)


# The seven terms' weights, the focal and GIoU ones negated: a term's sum adds
# to the loss as the sum times weight over the normaliser.
TERM_WEIGHTS = np.array([-W_CLS, W_CENTER, W_LRTB, -W_GIOU, W_SIZE, W_ANGLE, W_DEPTH])


class Block(NamedTuple):
    """A block's row of :func:`block_terms` sums, and its positive count."""
    row: int
    positives: int


def block_terms(pred: Tensor, blocks: Sequence[Sequence[int]],
                positives: Sequence[Sequence[int]], targets: TargetArrays
                ) -> tuple[Tensor, list[Block]]:
    """The term sums of several blocks of prediction rows of ``pred``, as one node.

    ``blocks[b]`` lists block b's rows of ``pred``, unique over all blocks,
    and ``positives[b]`` unique positions in it: the rows supervised toward
    the next targets of ``targets``, which holds every block's targets in
    block order. The op reads those rows once, and returns a (blocks, 7)
    tensor with one :class:`Block` per block. Row b holds block b's sums of
    the entries of its seven terms, in the order of their weights:

    - the sigmoid focal entries (``FOCAL_ALPHA``, ``FOCAL_GAMMA``) of the
      block's logits against the one-hot target classes, every other row
      background;
    - |pred - target| of the positive centers, then of their lrtb;
    - the GIoU of the positive rows' corner boxes against the targets';
    - |pred - target| of the positive size3d, angle and depth.

    A block's entries of a term are consecutive rows of the term's array, so
    a run of blocks with equal row and positive counts sums as the rows of
    one matrix, each row alone: the sums are bitwise those of a block scored
    alone. The VJP spreads each sum's gradient over its entries, runs the
    focal, L1 and GIoU expressions once over every entry, and hands back one
    ``RowGrad`` of the blocks' rows: the focal gradient in the logit
    columns, the box terms' in the positive rows' box columns. The targets
    receive no gradient, and the L1 gradient at pred == target is 0.
    """
    x = pred.data
    if x.ndim != 2 or x.shape[1] <= BOX_COLUMNS:
        raise ShapeError(f"block_terms: prediction rows {x.shape} have no class column")
    if len(blocks) != len(positives):
        raise ValueError(f"block_terms: {len(blocks)} blocks vs {len(positives)} positive lists")
    sizes = np.array([len(rows) for rows in blocks], dtype=np.intp)
    counts = np.array([len(at) for at in positives], dtype=np.intp)
    if counts.sum() != len(targets):
        raise ValueError(f"{counts.sum()} positives vs {len(targets)} targets")
    none = np.zeros(0, dtype=np.intp)
    rows = np.concatenate([none, *map(_indices, blocks)])
    if rows.size and (rows.min() < 0 or rows.max() >= x.shape[0]):
        raise IndexError(f"block_terms: block rows out of range for {x.shape[0]} rows")
    at = np.concatenate([none, *map(_indices, positives)])
    if ((at < 0) | (at >= np.repeat(sizes, counts))).any():
        raise IndexError("block_terms: positives out of range of their blocks")
    at += np.repeat(np.cumsum(sizes) - sizes, counts)  # rows of ``picked``
    for what, ind in (("block rows", rows), ("positives", at)):
        if np.bincount(ind).max(initial=0) > 1:
            raise ValueError(f"block_terms: {what} repeat a row")

    picked = x[rows]
    onehot = np.zeros((len(rows), x.shape[1] - BOX_COLUMNS))
    onehot[at, targets.classes] = 1.0
    focal, focal_vjp = _focal_terms(picked[:, LOGITS], onehot)
    box = picked[at, -BOX_COLUMNS:]
    diff = box - targets.boxes
    giou, giou_vjp = giou_pairs(box[:, CENTER], box[:, LRTB], targets.corners)
    l1 = [np.abs(diff[:, cols]) for cols in BOX_SLICES]
    terms = [focal, l1[0], l1[1], giou[:, None], l1[2], l1[3], l1[4]]

    sums = np.empty((len(blocks), len(terms)))
    b, first = 0, [0] * len(terms)  # the next block, and each term's next row
    for (size, count), run in groupby(zip(sizes.tolist(), counts.tolist())):
        n = len(list(run))
        for t, term in enumerate(terms):
            stop = first[t] + n * (size if t == 0 else count)
            sums[b:b + n, t] = term[first[t]:stop].reshape(n, -1).sum(axis=1)
            first[t] = stop
        b += n

    def vjp(g):
        picked_g = np.zeros_like(picked)
        picked_g[:, LOGITS] = focal_vjp(np.repeat(g[:, 0], sizes)[:, None])
        g_pos = np.repeat(g, counts, axis=0)  # each positive row's block gradients
        # the five L1 terms' gradients over their box columns
        g_box = np.repeat(g_pos[:, [1, 2, 4, 5, 6]], BOX_WIDTHS, axis=1) * np.sign(diff)
        for cols, g_giou_box in zip((CENTER, LRTB), giou_vjp(g_pos[:, 3])):
            g_box[:, cols] += g_giou_box
        picked_g[at, -BOX_COLUMNS:] = g_box
        return (RowGrad(rows, picked_g),)

    return (_node(sums, (pred,), vjp),
            [Block(row, c) for row, c in enumerate(counts.tolist())])


def component_loss(terms: Tensor, block: Block) -> Tensor:
    """Set-prediction loss of one block, as one node reading its row of ``terms``.

    ``terms`` and ``block`` come from :func:`block_terms`. The value adds the
    seven term sums, each divided by the normaliser max(1, positives), with
    the ``W_*`` weights in this order:

    - minus the focal sum (the focal loss);
    - the L1 sums of the positive centers and lrtb;
    - one minus GIoU, summed over the positive rows, computed as the
      constant positives / normaliser (exactly 1.0 with positives, 0.0
      without) minus the normalised GIoU sum;
    - the L1 sums of the positive size3d, angle and depth.

    Without positives every box term sums to 0 and only the focal term
    counts. The VJP hands back one ``RowGrad`` of the block's row: each
    term's sum gets the gradient times the term's weight over the
    normaliser.
    """
    x, row = terms.data, block.row
    if x.shape[1:] != TERM_WEIGHTS.shape or not 0 <= row < x.shape[0]:
        raise ShapeError(f"component_loss: row {row} of term sums {x.shape}")
    focal, center, lrtb, giou, size, angle, depth = x[row].tolist()
    normalizer = float(max(1, block.positives))
    cls_scale, l1_scale = -1.0 / normalizer, 1.0 / normalizer
    # the terms in weight order, added left to right
    out = (focal * cls_scale * W_CLS + center * l1_scale * W_CENTER + lrtb * l1_scale * W_LRTB
           + (giou * cls_scale + block.positives / normalizer) * W_GIOU
           + size * l1_scale * W_SIZE + angle * l1_scale * W_ANGLE + depth * l1_scale * W_DEPTH)

    def vjp(g):
        # (g * -w) * (1 / n) is (g * w) * (-1 / n) bit for bit: only signs move
        return (RowGrad(row, float(g) * TERM_WEIGHTS * l1_scale),)

    return _node(np.asarray(out), (terms,), vjp)
