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
the op reads them; this module re-exports them, and the matching cost reads
the same class, center and GIoU weights.

The ground truths enter as one :class:`TargetArrays` bundle: the class
ids, the five regression targets and the corner boxes, built once per step
from the scene's objects. A block's targets are the bundle itself (a noisy
block) or its matched rows (``take``); the matching cost reads the same
bundle.

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
from .numerics import (FOCAL_ALPHA, FOCAL_GAMMA, W_ANGLE, W_CENTER, W_CLS, W_DEPTH,
                       W_GIOU, W_LRTB, W_SIZE, Tensor)


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
        c = self.centers.data
        e = self.lrtb.data
        return np.stack([c[:, 0] - e[:, 0], c[:, 1] - e[:, 2],
                         c[:, 0] + e[:, 1], c[:, 1] + e[:, 3]], axis=1)


class TargetArrays:
    """The ground truths of a step as the arrays the loss and the matcher read.

    Row i belongs to object i: ``classes`` holds the (K,) class ids, and one
    (K, 16) ``table`` the rest. ``boxes`` are views of its five regression
    targets in head order (center, lrtb, size3d, (sin, cos) yaw and depth)
    and ``corners`` of its (K, 4) corner boxes. Built once per step; the
    targets of matched objects are one :meth:`take`.
    """

    def __init__(self, classes: np.ndarray, table: np.ndarray):
        self.classes = classes
        self.table = table
        self.boxes = (table[:, 0:2], table[:, 2:6], table[:, 6:9], table[:, 9:11],
                      table[:, 11:12])
        self.corners = table[:, 12:16]

    @staticmethod
    def of(objects: Sequence[GroundTruthObject]) -> "TargetArrays":
        # the corners are box2d_corners' expressions
        table = np.array([[gt.x_c, gt.y_c, gt.l, gt.r, gt.t, gt.b, gt.l3d, gt.w3d, gt.h3d,
                           math.sin(gt.theta), math.cos(gt.theta), gt.d,
                           gt.x_c - gt.l, gt.y_c - gt.t, gt.x_c + gt.r, gt.y_c + gt.b]
                          for gt in objects], dtype=np.float64)
        return TargetArrays(np.array([gt.c for gt in objects], dtype=np.intp),
                            table.reshape(len(objects), 16))

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
