"""Forward-looking self-distillation across decoder layers.

Queries from every non-final layer are pulled toward the final layer's
queries at the positions the final layer's Hungarian assignment selected
(noisy rows correspond by construction and are all included). A shared
two-layer MLP, two ``(w, b)`` pairs, refines the student before the smooth-L1
alignment, and each query's term is scaled by the final prediction's 3D IoU
with its ground truth, so knowledge flows preferentially out of the good
final queries. The teacher side is off the tape: distillation never drags
the final layer toward the students. The student rows of every non-final
layer and group are gathered from the step's layer-major stack of decoder
rows in one op, so the refiner and the loss run once per step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import numerics as nm
from .geometry import OrientedBox3D, iou3d
from .numerics import Tensor


def refine(queries: Tensor, refiner: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """The refiner's two ``(w, b)`` layers with a ReLU between them."""
    first, second = refiner
    return nm.linear(nm.relu(nm.linear(queries, *first)), *second)


def iou_weights(decoded_boxes: list[OrientedBox3D], gt_indices: list[int],
                gt_boxes: list[OrientedBox3D]) -> np.ndarray:
    """Per supervised row, the 3D IoU of the final prediction with its target.

    ``decoded_boxes[i]`` is scored against ``gt_boxes[gt_indices[i]]``.
    Disjoint pairs get weight 0 and contribute nothing downstream.
    """
    return np.array([iou3d(box, gt_boxes[j]) for box, j in zip(decoded_boxes, gt_indices)])


def forward_looking_distill(stack: Tensor, layers: int, rows: np.ndarray,
                            row_weights: np.ndarray, refiner: Sequence[tuple[Tensor, Tensor]],
                            teacher: np.ndarray) -> Tensor:
    """Sum over non-final layers of the weighted query-alignment loss.

    ``stack`` holds the output rows of ``layers`` decoder layers, layer-major,
    each layer's rows for all groups; the last layer is the teacher. ``rows``
    selects the R supervised rows of one layer over every group (final-matched
    learnable rows plus all noisy rows), ``row_weights`` their IoU weights
    divided by R, and ``teacher`` the final layer's (R, D) values at those
    rows, constants taken off the tape. Per layer the loss averages over the
    R rows; with no rows, or no layer but the teacher, it is 0, and the
    refiner's gradient is exactly zero.
    """
    students = layers - 1
    stride = stack.data.shape[0] // layers
    idx = (np.arange(students)[:, None] * stride + rows).ravel()
    refined = refine(nm.gather_rows(stack, idx), refiner)
    return nm.weighted_row_smooth_l1(refined, nm.Tensor(np.tile(teacher, (students, 1))),
                                     np.tile(row_weights, students))
