"""Forward-looking self-distillation across decoder layers.

Queries from every non-final layer are pulled toward the final layer's
queries at the positions the final layer's Hungarian assignment selected
(noisy rows correspond by construction and are all included). A shared
two-layer MLP refines the student before the smooth-L1 alignment, and each
query's term is scaled by the final prediction's 3D IoU with its ground
truth, so knowledge flows preferentially out of the good final queries. The
teacher side is off the tape: distillation never drags the final layer
toward the students.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .geometry import OrientedBox3D, iou3d
from .matching import Assignment
from .numerics import Tensor


@dataclass
class RefinerParams:
    """Two-layer MLP (width D in and out) shared across all student layers."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def refiner_params(store: nm.ParameterStore, width: int,
                   prefix: str = "refiner") -> RefinerParams:
    return RefinerParams(
        w1=store.param(f"{prefix}.1.w", (width, width), scale=0.1),
        b1=store.param(f"{prefix}.1.b", (width,), scale=0.0),
        w2=store.param(f"{prefix}.2.w", (width, width), scale=0.1),
        b2=store.param(f"{prefix}.2.b", (width,), scale=0.0),
    )


def refine(queries: Tensor, params: RefinerParams) -> Tensor:
    return nm.linear(nm.relu(nm.linear(queries, params.w1, params.b1)),
                     params.w2, params.b2)


def iou_weights(decoded_boxes: list[OrientedBox3D], assignment: Assignment,
                gt_boxes: list[OrientedBox3D]) -> np.ndarray:
    """Per matched pair, the 3D IoU of the final prediction with its target.

    ``decoded_boxes`` is indexed by query row; the result aligns with
    ``assignment.pairs``. Disjoint pairs get weight 0 and contribute nothing
    downstream.
    """
    return np.array([iou3d(decoded_boxes[q], gt_boxes[g])
                     for q, g in assignment.pairs])


def forward_looking_distill(layer_queries: list[Tensor],
                            row_indices: list[list[int]],
                            row_weights: list[np.ndarray],
                            refiner: RefinerParams,
                            teacher_rows: list[np.ndarray] | None = None) -> Tensor:
    """Sum over non-final layers of the weighted query-alignment loss.

    ``layer_queries[i]`` is layer i's output rows for all groups; the last
    layer is the teacher. ``row_indices[g]`` selects group g's supervised
    rows of those tensors (final-matched learnable rows plus all noisy rows)
    and ``row_weights[g]`` their IoU weights. Per layer the loss averages
    over queries within a group and over groups, and the teacher values are
    constants (optionally pinned explicitly via ``teacher_rows`` for replay).
    """
    zero = nm.Tensor(0.0)
    if len(layer_queries) <= 1:
        return zero
    if teacher_rows is None:
        teacher_rows = [layer_queries[-1].data[idx] for idx in row_indices]
    total = zero
    for layer in layer_queries[:-1]:
        layer_term = zero
        for idx, weights, teacher in zip(row_indices, row_weights, teacher_rows):
            if not idx:
                continue
            refined = refine(nm.gather_rows(layer, idx), refiner)
            layer_term = layer_term + nm.weighted_row_smooth_l1(
                refined, nm.Tensor(teacher), weights)
        total = total + layer_term * (1.0 / len(row_indices))
    return total
