"""Optimal query-to-ground-truth assignment and the DETR-style matching cost.

The solver is the augmenting-path Hungarian algorithm with row/column
potentials, run with the smaller side of a rectangular cost matrix as rows:
O(n^2 m) for n rows and m >= n columns. Rows are processed in ascending
index and column scans break ties toward the lowest index (a strict ``<``),
so the returned assignment is a deterministic function of the matrix. The
scan reads the matrix as Python floats, which give the same IEEE doubles as
numpy scalars at about half the cost per operation, and visits only the
columns not yet in the alternating tree.
Assignments are discrete: no gradient flows through them, only through the
losses later evaluated at the matched pairs. The cost weighs its class,
center and GIoU terms with the set-prediction objective's own weights, and
scores GIoU with the objective's own kernel; :mod:`losses` owns both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import CENTER, W_CENTER, W_CLS, W_GIOU, TargetArrays, giou_pairs


@dataclass
class Assignment:
    """Matched (query index, ground-truth index) pairs and their summed cost."""

    pairs: list[tuple[int, int]]
    total_cost: float

    def query_indices(self) -> list[int]:
        return [q for q, _ in self.pairs]

    def gt_indices(self) -> list[int]:
        return [g for _, g in self.pairs]


def _solve_rows_le_cols(cost: np.ndarray) -> list[int]:
    """Column matched to each row, for an (n, m) matrix with n <= m."""
    n, m = cost.shape
    INF = math.inf
    rows = cost.tolist()
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # 1-based row matched to column j, 0 = free
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        free = list(range(1, m + 1))  # columns not yet in the tree, ascending
        used = [0]  # columns in the tree; their rows differ, so update order is immaterial
        while True:
            i0 = match[j0]
            ui = u[i0]
            row = rows[i0 - 1]
            delta = INF
            j1 = -1
            for j in free:
                cur = row[j - 1] - ui - v[j]
                mj = minv[j]
                if cur < mj:
                    minv[j] = mj = cur
                    way[j] = j0
                if mj < delta:
                    delta = mj
                    j1 = j
            for j in used:
                u[match[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
            free.remove(j0)
            used.append(j0)
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = [-1] * n
    for j in range(1, m + 1):
        if match[j] != 0:
            row_to_col[match[j] - 1] = j - 1
    return row_to_col


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-cost injective assignment of the smaller side of ``cost``.

    An empty matrix yields an empty assignment with cost 0. Costs must be
    finite. Pairs come back sorted by query (row) index.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {cost.shape}")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment(pairs=[], total_cost=0.0)
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    if n <= m:
        row_to_col = _solve_rows_le_cols(cost)
        pairs = [(i, j) for i, j in enumerate(row_to_col) if j >= 0]
    else:
        col_to_row = _solve_rows_le_cols(cost.T)
        pairs = sorted((i, j) for j, i in enumerate(col_to_row) if i >= 0)
    total = float(sum(cost[i, j] for i, j in pairs))
    return Assignment(pairs=pairs, total_cost=total)


def matching_cost(class_probs: np.ndarray, centers: np.ndarray, lrtb: np.ndarray,
                  targets: TargetArrays) -> np.ndarray:
    """(num queries, num targets) DETR matching cost from detached predictions.

    cost = W_CLS * (1 - p[target class]) + W_CENTER * L1(center)
         + W_GIOU * (1 - GIoU), with the objective's own weights, target
    arrays and GIoU kernel from :mod:`losses`, broadcast over every (query,
    target) pair of the queries' centers and edge distances; all inputs are
    plain arrays, off the tape.
    """
    nq = class_probs.shape[0]
    if nq == 0 or len(targets) == 0:
        return np.zeros((nq, len(targets)))
    gt_xy = targets.boxes[:, CENTER]
    cls_term = 1.0 - class_probs[:, targets.classes]
    center_term = (np.abs(centers[:, 0:1] - gt_xy[:, 0])
                   + np.abs(centers[:, 1:2] - gt_xy[:, 1]))
    giou, _ = giou_pairs(centers[:, None], lrtb[:, None], targets.corners)
    return W_CLS * cls_term + W_CENTER * center_term + W_GIOU * (1.0 - giou)
