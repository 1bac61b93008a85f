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
center and GIoU terms with the set-prediction objective's own weights, which
:mod:`losses` owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import W_CENTER, W_CLS, W_GIOU, TargetArrays


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


def _giou2d_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized IoU of every (row of a, row of b) pair, as an (n, m) matrix.

    The operations are those of the scalar reference ``giou2d`` in
    ``tests/oracles.py``, in its order, with Python's min/max tie rule (the
    first argument wins), so every entry is bitwise equal to it, including
    its degenerate-hull and zero-union branches.
    """
    if (a[:, 0] > a[:, 2]).any() or (a[:, 1] > a[:, 3]).any() \
            or (b[:, 0] > b[:, 2]).any() or (b[:, 1] > b[:, 3]).any():
        raise ValueError("corner box has min > max")
    ax0, ay0, ax1, ay1 = (a[:, j:j + 1] for j in range(4))
    bx0, by0, bx1, by1 = b.T
    inter_w = np.where(bx1 < ax1, bx1, ax1) - np.where(bx0 > ax0, bx0, ax0)
    inter_h = np.where(by1 < ay1, by1, ay1) - np.where(by0 > ay0, by0, ay0)
    inter = np.where(inter_w > 0.0, inter_w, 0.0) * np.where(inter_h > 0.0, inter_h, 0.0)
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = (bx1 - bx0) * (by1 - by0)
    union = area_a + area_b - inter
    hull = (np.where(bx1 > ax1, bx1, ax1) - np.where(bx0 < ax0, bx0, ax0)) \
        * (np.where(by1 > ay1, by1, ay1) - np.where(by0 < ay0, by0, ay0))
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0.0, inter / union, 0.0)
        giou = iou - (hull - union) / hull
    # a hull of zero area: both boxes collapse to one point or a shared segment
    same = (ax0 == bx0) & (ay0 == by0) & (ax1 == bx1) & (ay1 == by1)
    return np.where(hull <= 0.0, np.where(same, 1.0, 0.0), giou)


def matching_cost(class_probs: np.ndarray, centers: np.ndarray,
                  corner_boxes: np.ndarray, targets: TargetArrays) -> np.ndarray:
    """(num queries, num targets) DETR matching cost from detached predictions.

    cost = W_CLS * (1 - p[target class]) + W_CENTER * L1(center)
         + W_GIOU * (1 - giou2d), with the objective's own weights and
    target arrays from :mod:`losses`; all inputs are plain arrays, off the
    tape.
    """
    nq = class_probs.shape[0]
    if nq == 0 or len(targets) == 0:
        return np.zeros((nq, len(targets)))
    gt_xy = targets.boxes[0]
    cls_term = 1.0 - class_probs[:, targets.classes]
    center_term = (np.abs(centers[:, 0:1] - gt_xy[:, 0])
                   + np.abs(centers[:, 1:2] - gt_xy[:, 1]))
    giou_term = 1.0 - _giou2d_grid(np.asarray(corner_boxes, dtype=np.float64), targets.corners)
    return W_CLS * cls_term + W_CENTER * center_term + W_GIOU * giou_term
