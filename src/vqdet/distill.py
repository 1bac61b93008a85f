"""Forward-looking self-distillation across decoder layers.

Queries from every non-final layer are pulled toward the final layer's
queries at the positions the final layer's Hungarian assignment selected
(noisy rows correspond by construction and are all included). A shared
two-layer MLP refines the student before the smooth-L1 alignment, and each
query's term is scaled by the final prediction's 3D IoU with its ground
truth, so knowledge flows preferentially out of the good final queries. The
teacher side is off the tape: distillation never drags the final layer
toward the students. The student rows of every non-final layer and group are
gathered from the step's layer-major stack of decoder rows in one op, so the
refiner and the loss run once per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .geometry import OrientedBox3D, iou3d
from .numerics import Tensor


@dataclass
class RefinerParams:
    """Two-layer MLP (width D in and out) shared across all student layers."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def refiner_params(store: nm.ParameterStore, width: int) -> RefinerParams:
    return RefinerParams(
        w1=store.param("refiner.1.w", (width, width), scale=0.1),
        b1=store.param("refiner.1.b", (width,), scale=0.0),
        w2=store.param("refiner.2.w", (width, width), scale=0.1),
        b2=store.param("refiner.2.b", (width,), scale=0.0),
    )


def refine(queries: Tensor, params: RefinerParams) -> Tensor:
    return nm.linear(nm.relu(nm.linear(queries, params.w1, params.b1)),
                     params.w2, params.b2)


def iou_weights(decoded_boxes: list[OrientedBox3D], gt_indices: list[int],
                gt_boxes: list[OrientedBox3D]) -> np.ndarray:
    """Per supervised row, the 3D IoU of the final prediction with its target.

    ``decoded_boxes[i]`` is scored against ``gt_boxes[gt_indices[i]]``.
    Disjoint pairs get weight 0 and contribute nothing downstream.
    """
    return np.array([iou3d(box, gt_boxes[j]) for box, j in zip(decoded_boxes, gt_indices)])


def forward_looking_distill(stack: Tensor, layers: int,
                            row_indices: list[list[int]],
                            row_weights: list[np.ndarray],
                            refiner: RefinerParams,
                            teacher_rows: list[np.ndarray]) -> Tensor:
    """Sum over non-final layers of the weighted query-alignment loss.

    ``stack`` holds the output rows of ``layers`` decoder layers, layer-major,
    each layer's rows for all groups; the last layer is the teacher.
    ``row_indices[g]`` selects group g's supervised rows of one layer
    (final-matched learnable rows plus all noisy rows), ``row_weights[g]``
    their IoU weights and ``teacher_rows[g]`` the final layer's values at
    those rows, constants taken off the tape. Per layer the loss averages
    over queries within a group and over groups; with no groups it is 0.

    The row weights handed to the one weighted smooth-L1 carry the
    1 / (rows in the group * groups) normaliser.
    """
    students = layers - 1
    kept = [g for g, idx in enumerate(row_indices) if idx]
    if not students or not kept:
        return nm.Tensor(0.0)
    groups = len(row_indices)
    stride = stack.data.shape[0] // layers
    idx = [layer * stride + i for layer in range(students)
           for g in kept for i in row_indices[g]]
    weights = np.concatenate([row_weights[g] / (len(row_indices[g]) * groups) for g in kept])
    teacher = np.concatenate([teacher_rows[g] for g in kept])
    refined = refine(nm.gather_rows(stack, idx), refiner)
    return nm.weighted_row_smooth_l1(refined, nm.Tensor(np.tile(teacher, (students, 1))),
                                     np.tile(weights, students))
