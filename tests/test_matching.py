import numpy as np
import pytest

from vqdet.geometry import GroundTruthObject
from vqdet.losses import W_CENTER, W_CLS, W_GIOU, TargetArrays, corner_boxes, giou_pairs
from vqdet.matching import hungarian, matching_cost
from oracles import (box2d_corners, brute_force_min_cost, flagged_hungarian_scan, giou2d,
                     loop_matching_cost)


def _gt(c=0, x=0.5, y=0.5, half=0.1):
    return GroundTruthObject(c, x, y, half, half, half, half, 4, 2, 1.5, 0.0, 20)


def _features(rng, nq=4):
    """Detached (class probs, centers, edge distances) of ``nq`` random queries."""
    probs = rng.random((nq, 3))
    centers = rng.random((nq, 2))
    sizes = rng.uniform(0.05, 0.2, size=(nq, 2))
    return probs, centers, np.repeat(sizes, 2, axis=1)


class TestHungarian:
    def test_diagonal_dominant(self):
        out = hungarian(np.array([[0.0, 9.0], [9.0, 0.0]]))
        assert out.pairs == [(0, 0), (1, 1)]
        assert out.total_cost == 0.0

    def test_single_cell(self):
        out = hungarian(np.array([[5.0]]))
        assert out.pairs == [(0, 0)]
        assert out.total_cost == 5.0

    def test_empty_matrix(self):
        assert hungarian(np.zeros((0, 3))).pairs == []
        assert hungarian(np.zeros((4, 0))).total_cost == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian(np.array([[np.inf]]))

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            cost = rng.normal(size=(n, m)) * rng.uniform(0.5, 10)
            got = hungarian(cost)
            assert len(got.pairs) == min(n, m)
            assert len({q for q, _ in got.pairs}) == len(got.pairs)
            assert len({g for _, g in got.pairs}) == len(got.pairs)
            assert got.total_cost == pytest.approx(brute_force_min_cost(cost), abs=1e-9)

    def test_deterministic_given_matrix(self):
        rng = np.random.default_rng(1)
        cost = rng.integers(0, 3, size=(5, 5)).astype(float)  # heavy ties
        first = hungarian(cost)
        for _ in range(5):
            again = hungarian(cost.copy())
            assert again.pairs == first.pairs
            assert again.total_cost == first.total_cost

    def test_gt_permutation_consistency(self):
        """Permuting the ground truths permutes the matched pairs, per group."""
        rng = np.random.default_rng(5)
        feats = [_features(rng) for _ in range(2)]
        gts = [_gt(c=0, x=0.2), _gt(c=1, x=0.5), _gt(c=2, x=0.8)]
        perm = [2, 0, 1]
        inverse = {new_j: old_j for new_j, old_j in enumerate(perm)}
        for f in feats:
            a = hungarian(matching_cost(*f, TargetArrays.of(gts)))
            b = hungarian(matching_cost(*f, TargetArrays.of([gts[p] for p in perm])))
            remapped = sorted((q, inverse[j]) for q, j in b.pairs)
            assert remapped == sorted(a.pairs)
            assert b.total_cost == pytest.approx(a.total_cost, abs=1e-12)

    def test_rectangular_both_orientations(self):
        rng = np.random.default_rng(2)
        for shape in [(2, 6), (6, 2), (1, 7), (7, 1)]:
            cost = rng.normal(size=shape)
            got = hungarian(cost)
            assert got.total_cost == pytest.approx(brute_force_min_cost(cost), abs=1e-9)


def _step_sized_matrices(rng):
    """Random, near-tie, integer-cost and nearly additive matrices of a step's sizes,
    both ways round."""
    for shape in [(12, 16), (16, 12)]:
        for _ in range(20):
            yield rng.normal(size=shape) * rng.uniform(0.5, 10)
            # an untrained model scores every query alike: rows 1e-12 apart
            yield (np.tile(rng.uniform(1.0, 9.0, size=shape[1]), (shape[0], 1))
                   + rng.integers(0, 3, size=shape) * 1e-12)
            yield rng.integers(0, 4, size=shape).astype(float)
            yield _nearly_additive(rng, *shape)


def _nearly_additive(rng, rows, cols):
    """A query term plus a target term plus 1e-3 of noise, as at initial weights: every
    target has the same cheapest query, whichever axis holds the 16 queries."""
    queries, targets = max(rows, cols), min(rows, cols)
    query_term = rng.uniform(0.5, 2.0, size=queries)
    query_term[rng.integers(queries)] = 0.0
    cost = (query_term[:, None] + rng.uniform(1.0, 9.0, size=targets)
            + rng.uniform(0.0, 1e-3, size=(queries, targets)))
    assert len(set(cost.argmin(axis=0).tolist())) == 1
    return cost if rows == queries else cost.T


class TestHungarianAtStepSizes:
    def test_total_cost_equals_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        for cost in _step_sized_matrices(np.random.default_rng(8)):
            got = hungarian(cost)
            rows, cols = optimize.linear_sum_assignment(cost)
            assert len(got.pairs) == min(cost.shape)
            assert len({q for q, _ in got.pairs}) == len({g for _, g in got.pairs}) == 12
            assert got.total_cost == pytest.approx(cost[rows, cols].sum(), abs=1e-9)

    def test_same_columns_as_the_flagged_scan(self):
        for cost in _step_sized_matrices(np.random.default_rng(9)):
            small = cost if cost.shape[0] <= cost.shape[1] else cost.T
            want = flagged_hungarian_scan(small)
            got = hungarian(small).pairs
            assert got == [(i, j) for i, j in enumerate(want)]

    def test_tie_heavy_pairs_pinned(self):
        """Many optimal assignments; the lowest-index tie rule picks these."""
        cost = np.fromfunction(lambda i, j: (7 * j + 3 * (i // 4)) % 5, (12, 16))
        got = hungarian(cost)
        assert got.total_cost == 3.0
        assert got.pairs == [(0, 0), (1, 5), (2, 10), (3, 15), (4, 1), (5, 6),
                             (6, 11), (7, 4), (8, 2), (9, 7), (10, 12), (11, 3)]
        assert hungarian(cost.T).pairs == [(0, 0), (1, 4), (2, 8), (3, 11), (4, 7), (5, 1),
                                           (6, 5), (7, 9), (10, 2), (11, 6), (12, 10), (15, 3)]


class TestMatchingCost:
    def test_perfect_prediction_zero_cost(self):
        gt = _gt(c=1)
        probs = np.array([[0.0, 1.0, 0.0]])
        centers = np.array([[gt.x_c, gt.y_c]])
        lrtb = np.array([[gt.l, gt.r, gt.t, gt.b]])
        cost = matching_cost(probs, centers, lrtb, TargetArrays.of([gt]))
        assert cost[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_no_ground_truths_empty_columns(self):
        cost = matching_cost(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 4)),
                             TargetArrays.of([]))
        assert cost.shape == (3, 0)
        assert hungarian(cost).pairs == []

    def test_hand_computed_two_by_two(self):
        """The matcher scores with the loss's class, center and GIoU weights."""
        assert (W_CLS, W_CENTER, W_GIOU) == (2.0, 5.0, 2.0)
        g0 = _gt(c=0, x=0.4, y=0.4)
        g1 = _gt(c=1, x=0.7, y=0.6)
        probs = np.array([[0.8, 0.2, 0.0], [0.1, 0.6, 0.3]])
        centers = np.array([[0.42, 0.40], [0.70, 0.65]])
        lrtb = np.array([[0.12, 0.08, 0.1, 0.1], [0.1, 0.1, 0.15, 0.05]])
        boxes = corner_boxes(centers, lrtb)
        cost = matching_cost(probs, centers, lrtb, TargetArrays.of([g0, g1]))
        for i, (p, ctr, box) in enumerate(zip(probs, centers, boxes)):
            for j, gt in enumerate([g0, g1]):
                expected = (W_CLS * (1 - p[gt.c])
                            + W_CENTER * (abs(ctr[0] - gt.x_c) + abs(ctr[1] - gt.y_c))
                            + W_GIOU * (1 - giou2d(tuple(box), box2d_corners(gt))))
                assert cost[i, j] == pytest.approx(expected, abs=1e-12)


    def test_bitwise_equal_to_per_query_loop(self):
        rng = np.random.default_rng(6)
        for nq, ng in [(1, 1), (16, 4), (16, 12), (5, 9)]:
            probs = rng.random((nq, 3))
            centers = rng.random((nq, 2))
            lrtb = rng.uniform(0.0, 0.3, size=(nq, 4))
            gts = [GroundTruthObject(int(rng.integers(3)), *rng.uniform(0.2, 0.8, 2),
                                     *rng.uniform(0.01, 0.2, 4), 4, 2, 1.5, 0.0, 20)
                   for _ in range(ng)]
            # a query on its ground truth (every min/max ties), one on a shared
            # edge (zero-width intersection) and two points
            g = gts[-1]
            centers[0], lrtb[0] = (g.x_c, g.y_c), (g.l, g.r, g.t, g.b)
            if nq > 3:
                centers[1], lrtb[1] = (0.5, 0.5), 0.0
                centers[2], lrtb[2] = (0.2, 0.1), 0.0
                x0, y0, x1, y1 = box2d_corners(g)
                centers[3], lrtb[3] = (x1, y0), (0.0, 0.1, 0.0, y1 - y0)
            got = matching_cost(probs, centers, lrtb, TargetArrays.of(gts))
            want = loop_matching_cost(probs, centers, corner_boxes(centers, lrtb), gts)
            assert got.tobytes() == want.tobytes()

    def test_giou_is_the_loss_kernel_pair_by_pair(self):
        """Broadcast over (query, target) pairs, the loss's kernel gives each pair's GIoU."""
        rng = np.random.default_rng(7)
        _, centers, lrtb = _features(rng, nq=6)
        targets = TargetArrays.of([_gt(x=0.3), _gt(x=0.6, half=0.05), _gt(half=0.2)])
        grid, _ = giou_pairs(centers[:, None], lrtb[:, None], targets.corners)
        for j in range(len(targets)):
            pairs, _ = giou_pairs(centers, lrtb, targets.take([j] * 6).corners)
            assert grid[:, j].tobytes() == pairs.tobytes()
