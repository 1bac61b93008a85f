"""Component losses checked against straightline hand-executed formulas, and
the fused loss ops against the composite graphs of elementwise ops they replace."""

import math

import numpy as np
import pytest

from vqdet import numerics as nm
from vqdet.geometry import GroundTruthObject, box2d_corners
from vqdet.gradcheck import OP_TOLERANCE, check_scalar_fn
from vqdet.losses import LossWeights, PredictionRows, component_loss, focal_loss
from oracles import (
    composite_corner_boxes,
    composite_focal_loss,
    composite_giou_loss,
    composite_l1_loss,
    giou2d,
)


def _pred_rows(class_logits, centers, lrtb, size3d, angle, depth):
    return PredictionRows(
        class_logits=nm.Tensor(class_logits), centers=nm.Tensor(centers),
        lrtb=nm.Tensor(lrtb), size3d=nm.Tensor(size3d),
        angle=nm.Tensor(angle), depth=nm.Tensor(depth))


def _hand_focal(logits, onehot, alpha, gamma):
    p = 1.0 / (1.0 + np.exp(-logits))
    pos = -alpha * (1 - p) ** gamma * np.log(p)
    neg = -(1 - alpha) * p ** gamma * np.log(1 - p)
    return float((onehot * pos + (1 - onehot) * neg).sum())


class TestFocalLoss:
    def test_matches_hand_formula(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 3)) * 2
        onehot = np.zeros((4, 3))
        onehot[0, 1] = 1.0
        onehot[2, 0] = 1.0
        got = focal_loss(nm.Tensor(logits), onehot, 0.25, 2.0, normalizer=2.0)
        assert got.item() == pytest.approx(_hand_focal(logits, onehot, 0.25, 2.0) / 2.0,
                                           abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[500.0, -500.0]])
        onehot = np.array([[1.0, 0.0]])
        got = focal_loss(nm.Tensor(logits), onehot, 0.25, 2.0, 1.0)
        assert np.isfinite(got.item())
        assert got.item() == pytest.approx(0.0, abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 4))
        onehot = np.zeros((3, 4))
        onehot[1, 2] = 1.0
        err = check_scalar_fn(lambda ts: focal_loss(ts[0], onehot, 0.25, 2.0, 1.0),
                              [logits])
        assert err <= OP_TOLERANCE


def _op_corners(centers, lrtb):
    """The corner boxes ``giou_loss`` scores, computed with its float ops."""
    return np.concatenate([centers[:, :1] - lrtb[:, 0:1], centers[:, 1:] - lrtb[:, 2:3],
                           centers[:, :1] + lrtb[:, 1:2], centers[:, 1:] + lrtb[:, 3:4]],
                          axis=1)


def _random_centers_lrtb(rng, m):
    return rng.uniform(0.2, 0.8, size=(m, 2)), rng.uniform(0.05, 0.3, size=(m, 4))


class TestGIoUPairs:
    """``giou_loss``: one minus the mean GIoU of predicted and target box pairs."""

    def test_matches_scalar_giou(self):
        rng = np.random.default_rng(2)
        for m in (1, 3):
            for _ in range(10):
                centers, lrtb = _random_centers_lrtb(rng, m)
                x0, y0 = rng.uniform(0, 0.5, (2, m))
                target = np.stack([x0, y0, x0 + rng.uniform(0.1, 0.5, m),
                                   y0 + rng.uniform(0.1, 0.5, m)], axis=1)
                got = nm.giou_loss(nm.Tensor(centers), nm.Tensor(lrtb), target, 2.0)
                pred = _op_corners(centers, lrtb)
                want = 1.0 - sum(giou2d(tuple(a), tuple(b)) for a, b in zip(pred, target)) / 2.0
                assert got.item() == pytest.approx(want, abs=1e-12)

    def test_gradient(self):
        # no coordinate ties between pred and target: min/max kinks break
        # central differences
        centers = np.array([[0.3, 0.25], [0.4, 0.155]])
        lrtb = np.array([[0.2, 0.2, 0.15, 0.15], [0.2, 0.2, 0.145, 0.145]])
        target = np.array([[0.15, 0.12, 0.55, 0.5], [0.05, 0.02, 0.45, 0.27]])
        err = check_scalar_fn(lambda ts: nm.giou_loss(ts[0], ts[1], target, 3.0),
                              [centers, lrtb])
        assert err <= OP_TOLERANCE

    def test_corner_boxes_layout(self):
        """Centers minus left/top and plus right/bottom: (0.4, 0.3, 0.7, 0.65)."""
        centers = nm.Tensor(np.array([[0.5, 0.6]]))
        lrtb = nm.Tensor(np.array([[0.1, 0.2, 0.3, 0.05]]))
        box = (0.4, 0.3, 0.7, 0.65)
        assert nm.giou_loss(centers, lrtb, np.array([box]), 1.0).item() == pytest.approx(
            0.0, abs=1e-12)
        other = (0.45, 0.2, 0.9, 0.5)
        assert nm.giou_loss(centers, lrtb, np.array([other]), 1.0).item() == pytest.approx(
            1.0 - giou2d(box, other), abs=1e-12)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(nm.ShapeError, match="giou_loss"):
            nm.giou_loss(nm.Tensor(np.zeros((2, 2))), nm.Tensor(np.ones((2, 4))),
                         np.ones((3, 4)), 1.0)


class TestComponentLoss:
    def test_hand_executed_tiny_instance(self):
        """One positive row among two; every component recomputed by hand."""
        gt = GroundTruthObject(0, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1,
                               3.5, 1.6, 1.5, 0.3, 20.0)
        logits = np.array([[0.4, -0.3], [-0.8, 0.2]])
        centers = np.array([[0.45, 0.52], [0.9, 0.1]])
        lrtb = np.array([[0.1, 0.12, 0.08, 0.11], [0.2, 0.2, 0.2, 0.2]])
        size3d = np.array([[3.2, 1.8, 1.4], [1.0, 1.0, 1.0]])
        angle = np.array([[0.2, 0.9], [0.0, 1.0]])
        depth = np.array([[18.0], [30.0]])
        pred = _pred_rows(logits, centers, lrtb, size3d, angle, depth)
        w = LossWeights()
        got = component_loss(pred, range(2), [0], [gt], w).item()

        onehot = np.zeros((2, 2))
        onehot[0, 0] = 1.0
        cls = _hand_focal(logits, onehot, w.focal_alpha, w.focal_gamma)
        center = abs(0.45 - 0.5) + abs(0.52 - 0.5)
        lrtb_l1 = abs(0.1 - 0.1) + abs(0.12 - 0.1) + abs(0.08 - 0.1) + abs(0.11 - 0.1)
        pred_box = (0.45 - 0.1, 0.52 - 0.08, 0.45 + 0.12, 0.52 + 0.11)
        giou_term = 1.0 - giou2d(pred_box, box2d_corners(gt.anchor()))
        size_l1 = abs(3.2 - 3.5) + abs(1.8 - 1.6) + abs(1.4 - 1.5)
        angle_l1 = abs(0.2 - math.sin(0.3)) + abs(0.9 - math.cos(0.3))
        depth_l1 = abs(18.0 - 20.0)
        expected = (w.w_cls * cls + w.w_center * center + w.w_lrtb * lrtb_l1
                    + w.w_giou * giou_term + w.w_size * size_l1
                    + w.w_angle * angle_l1 + w.w_depth * depth_l1)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_no_positives_only_background(self):
        logits = np.array([[2.0, -1.0], [0.5, 0.5]])
        pred = _pred_rows(logits, np.zeros((2, 2)), np.zeros((2, 4)),
                          np.zeros((2, 3)), np.zeros((2, 2)), np.ones((2, 1)))
        w = LossWeights()
        got = component_loss(pred, range(2), [], [], w).item()
        expected = w.w_cls * _hand_focal(logits, np.zeros((2, 2)),
                                         w.focal_alpha, w.focal_gamma)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_perfect_saturated_prediction_vanishes(self):
        gt = GroundTruthObject(1, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1,
                               3.5, 1.6, 1.5, 0.3, 20.0)
        logits = np.array([[-40.0, 40.0]])
        pred = _pred_rows(
            logits, np.array([[0.5, 0.5]]), np.array([[0.1, 0.1, 0.1, 0.1]]),
            np.array([[3.5, 1.6, 1.5]]),
            np.array([[math.sin(0.3), math.cos(0.3)]]), np.array([[20.0]]))
        got = component_loss(pred, range(1), [0], [gt], LossWeights()).item()
        assert got == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("block,positives", [
        (range(2, 7), [5, 2, 6]),   # a group's learnable rows, some matched
        (range(7, 10), [7, 8, 9]),  # a noisy block, every row positive
        (range(0, 4), []),          # no positives: background only
    ])
    def test_stacked_rows_equal_a_standalone_block(self, block, positives):
        """Reading a block in place is the loss of the block cut out, bit for bit."""
        rng = np.random.default_rng(21)
        stacked = [rng.uniform(0.05, 0.3, size=(10, w)) for w in (3, 2, 4, 3, 2, 1)]
        gts = [GroundTruthObject(j % 3, 0.5, 0.4, 0.1, 0.2, 0.1, 0.1, 3.5, 1.6, 1.5, 0.3, 20.0)
               for j in range(len(positives))]
        results = []
        for arrays, rows, pos in ((stacked, block, positives),
                                  ([a[block.start:block.stop] for a in stacked],
                                   range(len(block)), [r - block.start for r in positives])):
            leaves = [nm.Tensor(a.copy(), requires_grad=True) for a in arrays]
            loss = component_loss(PredictionRows(*leaves), rows, pos, gts, LossWeights())
            nm.backward(loss)
            results.append((loss, [t.grad for t in leaves]))
        (whole, whole_grads), (cut, cut_grads) = results
        assert whole.data.tobytes() == cut.data.tobytes()
        for g_whole, g_cut in zip(whole_grads, cut_grads):
            if g_cut is None:  # a regression tensor, when nothing is positive
                assert g_whole is None
                continue
            assert g_whole[block.start:block.stop].tobytes() == g_cut.tobytes()
            assert not g_whole[:block.start].any() and not g_whole[block.stop:].any()

    def test_mismatched_counts_rejected(self):
        pred = _pred_rows(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 4)),
                          np.zeros((2, 3)), np.zeros((2, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            component_loss(pred, range(2), [0], [], LossWeights())


def _value_and_grads(build, arrays, proj):
    """Output of ``build`` and the gradients of sum(output * proj) w.r.t. ``arrays``."""
    leaves = [nm.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(leaves)
    nm.backward(nm.sum_all(out * nm.Tensor(proj)))
    return out.data, [t.grad for t in leaves]


def _assert_fused_matches(fused, composite, arrays, proj):
    """Value and every gradient within 1e-12 of the composite's largest entry."""
    got, got_grads = _value_and_grads(fused, arrays, proj)
    want, want_grads = _value_and_grads(composite, arrays, proj)
    for g, w in zip([got, *got_grads], [want, *want_grads]):
        assert g.shape == w.shape
        assert np.abs(g - w).max(initial=0.0) <= 1e-12 * np.abs(w).max(initial=0.0)


class TestFusedOpsMatchComposite:
    def test_focal_loss(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            logits = rng.normal(size=(7, 3)) * 4.0
            if trial % 2:
                # saturated logits on both tails
                logits[rng.random(size=logits.shape) < 0.4] = 40.0
                logits[rng.random(size=logits.shape) < 0.4] = -40.0
            onehot = np.zeros((7, 3))
            onehot[rng.integers(7, size=3), rng.integers(3, size=3)] = 1.0
            alpha, gamma = rng.uniform(0.1, 0.9), [0.0, 1.0, 2.0, 2.5][trial % 4]
            norm = float(rng.integers(1, 5))
            _assert_fused_matches(
                lambda ts: focal_loss(ts[0], onehot, alpha, gamma, norm),
                lambda ts: composite_focal_loss(ts[0], onehot, alpha, gamma, norm),
                [logits], rng.normal())

    def test_giou_loss(self):
        rng = np.random.default_rng(11)
        centers = np.array([[0.4, 0.5]])
        lrtb = np.array([[0.1, 0.2, 0.15, 0.1]])
        # the op's own corners, so that copied coordinates tie exactly
        x0, y0, x1, y1 = _op_corners(centers, lrtb)[0]
        special = np.array([
            [x0, y0, x1, y1],                         # every min/max pair ties
            [x1, y0 + 0.05, x1 + 0.2, y1 - 0.05],     # zero-width intersection
            [x0 + 0.05, y1, x1 - 0.05, y1 + 0.2],     # zero-height intersection
            [x1, y1, x1 + 0.2, y1 + 0.2],             # touches at a corner
            [x0 - 0.1, y0 - 0.1, x1 + 0.1, y1 + 0.1],  # contains the prediction
            [x0 + 0.05, y0 + 0.05, x1 - 0.05, y1 - 0.05],  # inside the prediction
            [x1 + 0.1, y1 + 0.1, x1 + 0.3, y1 + 0.2],  # disjoint
            [x0, y0 + 0.05, x1 + 0.1, y1],            # ties on x0 and y1 only
        ])
        m = len(special)
        cases = [(np.repeat(centers, m, axis=0), np.repeat(lrtb, m, axis=0), special)]
        for trial in range(20):
            c, e = _random_centers_lrtb(rng, 6)
            own = _op_corners(c, e)
            if trial % 2:
                # near the prediction; copy some of its coordinates to tie
                target = own + rng.uniform(-0.04, 0.04, size=own.shape)
                target = np.where(rng.random(size=own.shape) < 0.3, own, target)
            else:
                target = own + np.tile(rng.uniform(-0.3, 0.3, size=(6, 2)), 2)  # moved
            cases.append((c, e, target))
        for c, e, target in cases:
            norm = float(rng.integers(1, 5))
            _assert_fused_matches(lambda ts: nm.giou_loss(ts[0], ts[1], target, norm),
                                  lambda ts: composite_giou_loss(ts[0], ts[1], target, norm),
                                  [c, e], rng.normal())

    def test_corner_boxes(self):
        """Matching's detached corner boxes are the composite's and the ones giou_loss scores."""
        rng = np.random.default_rng(12)
        centers, lrtb = _random_centers_lrtb(rng, 5)
        pred = PredictionRows(*(nm.Tensor(a) for a in (
            np.zeros((5, 3)), centers, lrtb, np.ones((5, 3)), np.ones((5, 2)), np.ones((5, 1)))))
        boxes = pred.corner_boxes_array()
        composite = composite_corner_boxes(nm.Tensor(centers), nm.Tensor(lrtb))
        assert boxes.tobytes() == composite.data.tobytes()
        # every box against itself has GIoU 1
        assert nm.giou_loss(pred.centers, pred.lrtb, boxes, 5.0).item() == pytest.approx(
            0.0, abs=1e-15)

    def test_l1_loss(self):
        rng = np.random.default_rng(13)
        target = rng.normal(size=(4, 3))
        pred = rng.normal(size=(4, 3))
        pred[0] = target[0]  # exact zeros: gradient 0 there in both
        _assert_fused_matches(lambda ts: nm.l1_loss(ts[0], target, 3.0),
                              lambda ts: composite_l1_loss(ts[0], target, 3.0),
                              [pred], rng.normal())

    def test_component_loss_records_few_nodes(self):
        rng = np.random.default_rng(14)
        rows = 6
        pred = PredictionRows(*(nm.Tensor(rng.random(size=(rows, w)), requires_grad=True)
                                for w in (3, 2, 4, 3, 2, 1)))
        gts = [GroundTruthObject(k % 3, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 3.5, 1.6, 1.5, 0.3, 20.0)
               for k in range(4)]
        loss = component_loss(pred, range(rows), [0, 2, 3, 5], gts, LossWeights())
        seen, stack = set(), [loss]
        while stack:
            t = stack.pop()
            if t._parents and id(t) not in seen:
                seen.add(id(t))
                stack.extend(t._parents)
        # 6 row gathers, focal, GIoU, 5 L1, the sum
        assert len(seen) == 14
