"""Per-component set-prediction losses shared by detection and denoising.

The head outputs of every decoder layer's stacked rows are one
:class:`PredictionRows` bundle, and a block is a set of its rows: one
layer's learnable queries of one group, or one noisy block. The component
loss reads the block in place. It applies sigmoid focal classification over
every row of the block (positives one-hot, the rest background) and L1 /
GIoU regression over the positive rows only. Each component is normalized
by the positive count, so magnitudes do not scale with the number of
objects. The objective is fixed, so the component weights and the focal
parameters are module constants (``W_*``, ``FOCAL_*``); the matching cost
reads the same class, center and GIoU weights.

Each term is a single tape op with a closed-form gradient, defined in
:mod:`numerics`: ``focal_loss``, ``giou_loss`` (from the centers and edge
distances straight to the mean GIoU term) and ``l1_loss`` (one per
regression target), and the weights are applied by one ``weighted_sum``. A
call with positives records 14 tape nodes: 6 row gathers (the block's logits
and the five regression tensors at the positive rows), those 7 loss terms
and the sum. Callers add block losses with one more ``weighted_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math
import numpy as np

from . import numerics as nm
from .geometry import GroundTruthObject, box2d_corners
from .numerics import Tensor, focal_loss

W_CLS, W_CENTER, W_LRTB, W_GIOU, W_SIZE, W_ANGLE, W_DEPTH = 2.0, 5.0, 5.0, 2.0, 1.0, 1.0, 0.5
FOCAL_ALPHA, FOCAL_GAMMA = 0.25, 2.0


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


def component_loss(pred: PredictionRows, block: Sequence[int],
                   positive_rows: Sequence[int],
                   targets: Sequence[GroundTruthObject]) -> Tensor:
    """Weighted sum of the six component losses for one block of rows of ``pred``.

    ``block`` lists the block's rows of ``pred``, and ``positive_rows[i]``,
    one of them, is supervised toward ``targets[i]``; every other row of the
    block is classification background. With no positives only the
    background focal term remains.
    """
    if len(positive_rows) != len(targets):
        raise ValueError(f"{len(positive_rows)} positive rows vs {len(targets)} targets")
    num_classes = pred.class_logits.data.shape[1]
    m = len(targets)
    norm = float(max(1, m))

    onehot = np.zeros((len(block), num_classes))
    for row, gt in zip(positive_rows, targets):
        onehot[block.index(row), gt.c] = 1.0
    cls = focal_loss(nm.gather_rows(pred.class_logits, block), onehot,
                     FOCAL_ALPHA, FOCAL_GAMMA, norm)
    if m == 0:
        return nm.weighted_sum([cls], [W_CLS])

    centers = nm.gather_rows(pred.centers, positive_rows)
    lrtb = nm.gather_rows(pred.lrtb, positive_rows)
    size3d = nm.gather_rows(pred.size3d, positive_rows)
    angle = nm.gather_rows(pred.angle, positive_rows)
    depth = nm.gather_rows(pred.depth, positive_rows)

    t_center = np.array([[gt.x_c, gt.y_c] for gt in targets])
    t_lrtb = np.array([[gt.l, gt.r, gt.t, gt.b] for gt in targets])
    t_size = np.array([[gt.l3d, gt.w3d, gt.h3d] for gt in targets])
    t_angle = np.array([[math.sin(gt.theta), math.cos(gt.theta)] for gt in targets])
    t_depth = np.array([[gt.d] for gt in targets])
    t_corners = np.array([box2d_corners(gt.anchor()) for gt in targets])

    return nm.weighted_sum(
        [cls, nm.l1_loss(centers, t_center, norm), nm.l1_loss(lrtb, t_lrtb, norm),
         nm.giou_loss(centers, lrtb, t_corners, norm),
         nm.l1_loss(size3d, t_size, norm), nm.l1_loss(angle, t_angle, norm),
         nm.l1_loss(depth, t_depth, norm)],
        [W_CLS, W_CENTER, W_LRTB, W_GIOU, W_SIZE, W_ANGLE, W_DEPTH])
