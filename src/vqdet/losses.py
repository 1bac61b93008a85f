"""Per-component set-prediction losses shared by detection and denoising.

The head outputs of every decoder layer's stacked rows are one
:class:`PredictionRows` bundle, and a block is a set of its rows: one
layer's learnable queries of one group, or one noisy block. The component
loss reads the block in place. It applies sigmoid focal classification over
every row of the block (positives one-hot, the rest background) and L1 /
GIoU regression over the positive rows only. Each component is normalized
by the positive count, so magnitudes do not scale with the number of
objects. The objective is fixed, so the component weights and the focal
parameters are constants (``W_*``, ``FOCAL_*``) of :mod:`numerics`, where
the op reads them; the matching cost reads the class, center and GIoU
weights there too.

A box row, target or noisy box, has one array form, :class:`TargetArrays`,
built once per step from a list of :class:`GroundTruthObject`. A block's
targets are the ground truths' bundle (a noisy block) or its matched rows
(``take``); the matching cost reads the same bundle, and the query
generator the noisy boxes'. :func:`corner_boxes` serves predictions and
targets alike.

A call is one tape op with a closed-form gradient, :func:`numerics.block_loss`:
it reads the block's logits and its positive rows of the five regression
tensors in place, computes the focal, GIoU and five L1 terms and adds them
with the ``W_*`` weights, so it records one tape node. Callers add block
losses with one ``weighted_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math
import numpy as np

from . import numerics as nm
from .geometry import GroundTruthObject
from .numerics import Tensor


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


def component_loss(pred: PredictionRows, block: Sequence[int],
                   positive_rows: Sequence[int], targets: TargetArrays) -> Tensor:
    """Weighted sum of the seven loss terms for one block of rows of ``pred``.

    ``block`` lists the block's rows of ``pred``, and ``positive_rows[i]``,
    one of them, is supervised toward target i of ``targets``; every other
    row of the block is classification background. With no positives only
    the background focal term remains. The targets' arrays are read as
    they are; only the block's one-hot class matrix is built here.
    """
    if len(positive_rows) != len(targets):
        raise ValueError(f"{len(positive_rows)} positive rows vs {len(targets)} targets")
    onehot = np.zeros((len(block), pred.class_logits.data.shape[1]))
    onehot[[block.index(row) for row in positive_rows], targets.classes] = 1.0
    return nm.block_loss(
        pred.class_logits, [pred.centers, pred.lrtb, pred.size3d, pred.angle, pred.depth],
        block, positive_rows, onehot, targets.boxes, targets.corners,
        float(max(1, len(targets))))
