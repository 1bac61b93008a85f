"""Component losses checked against straightline hand-executed formulas, the
single-node loss terms of ``tests/oracles.py`` against the composite graphs of
elementwise ops, and the one-node ``component_loss`` against those terms
composed the way the detector composed them before, bit for bit."""

import math

import numpy as np
import pytest

from vqdet import numerics as nm
from vqdet.geometry import GroundTruthObject
from vqdet.gradcheck import OP_TOLERANCE, check_scalar_fn
from vqdet.losses import (
    FOCAL_ALPHA,
    FOCAL_GAMMA,
    W_ANGLE,
    W_CENTER,
    W_CLS,
    W_DEPTH,
    W_GIOU,
    W_LRTB,
    W_SIZE,
    BOX_SLICES,
    TargetArrays,
    component_loss,
    corner_boxes,
    decode_heads,
)
from oracles import (
    box2d_corners,
    composite_corner_boxes,
    composite_decode_heads,
    composite_focal_loss,
    composite_giou_loss,
    composite_l1_loss,
    focal_loss,
    giou2d,
    giou_loss,
    l1_loss,
    reference_block_loss,
    split_prediction,
)

# widths of the five box tensors: centers, lrtb, size3d, angle, depth
BOX_WIDTHS = (2, 4, 3, 2, 1)


def _pred_rows(class_logits, centers, lrtb, size3d, angle, depth):
    """One prediction tensor: the logits, then the five box column blocks."""
    return nm.Tensor(np.concatenate([class_logits, centers, lrtb, size3d, angle, depth], axis=1))


def _box_fields(targets):
    """The five regression targets of ``targets``, one view per box column block."""
    return [targets.boxes[:, cols] for cols in BOX_SLICES]


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
    """``giou_loss``: one minus the mean GIoU of predicted and target box pairs.

    ``component_loss`` computes this term with the same float operations.
    """

    def test_matches_scalar_giou(self):
        rng = np.random.default_rng(2)
        for m in (1, 3):
            for _ in range(10):
                centers, lrtb = _random_centers_lrtb(rng, m)
                x0, y0 = rng.uniform(0, 0.5, (2, m))
                target = np.stack([x0, y0, x0 + rng.uniform(0.1, 0.5, m),
                                   y0 + rng.uniform(0.1, 0.5, m)], axis=1)
                got = giou_loss(nm.Tensor(centers), nm.Tensor(lrtb), target, 2.0)
                pred = _op_corners(centers, lrtb)
                want = 1.0 - sum(giou2d(tuple(a), tuple(b)) for a, b in zip(pred, target)) / 2.0
                assert got.item() == pytest.approx(want, abs=1e-12)

    def test_gradient(self):
        # no coordinate ties between pred and target: min/max kinks break
        # central differences
        centers = np.array([[0.3, 0.25], [0.4, 0.155]])
        lrtb = np.array([[0.2, 0.2, 0.15, 0.15], [0.2, 0.2, 0.145, 0.145]])
        target = np.array([[0.15, 0.12, 0.55, 0.5], [0.05, 0.02, 0.45, 0.27]])
        err = check_scalar_fn(lambda ts: giou_loss(ts[0], ts[1], target, 3.0),
                              [centers, lrtb])
        assert err <= OP_TOLERANCE

    def test_corner_boxes_layout(self):
        """Centers minus left/top and plus right/bottom: (0.4, 0.3, 0.7, 0.65)."""
        centers = nm.Tensor(np.array([[0.5, 0.6]]))
        lrtb = nm.Tensor(np.array([[0.1, 0.2, 0.3, 0.05]]))
        box = (0.4, 0.3, 0.7, 0.65)
        assert giou_loss(centers, lrtb, np.array([box]), 1.0).item() == pytest.approx(
            0.0, abs=1e-12)
        other = (0.45, 0.2, 0.9, 0.5)
        assert giou_loss(centers, lrtb, np.array([other]), 1.0).item() == pytest.approx(
            1.0 - giou2d(box, other), abs=1e-12)


def _random_gts(rng, k):
    return [GroundTruthObject(int(rng.integers(3)), *rng.uniform(0.2, 0.8, 2),
                              *rng.uniform(0.0, 0.2, 4), *rng.uniform(1.0, 5.0, 3),
                              rng.uniform(-math.pi, math.pi), rng.uniform(5.0, 60.0))
            for _ in range(k)]


def _target_bytes(targets):
    return [a.tobytes() for a in (targets.classes, *_box_fields(targets), targets.corners)]


class TestTargetArrays:
    def test_fields_follow_the_objects(self):
        gts = _random_gts(np.random.default_rng(3), 5)
        t = TargetArrays.of(gts)
        want = [np.array([gt.c for gt in gts]),
                np.array([[gt.x_c, gt.y_c] for gt in gts]),
                np.array([[gt.l, gt.r, gt.t, gt.b] for gt in gts]),
                np.array([[gt.l3d, gt.w3d, gt.h3d] for gt in gts]),
                np.array([[math.sin(gt.theta), math.cos(gt.theta)] for gt in gts]),
                np.array([[gt.d] for gt in gts]),
                np.array([box2d_corners(gt) for gt in gts])]
        assert len(t) == 5
        for got, expected in zip((t.classes, *_box_fields(t), t.corners), want):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.astype(got.dtype).tobytes()

    def test_take_equals_building_from_the_taken_objects(self):
        rng = np.random.default_rng(4)
        gts = _random_gts(rng, 12)
        whole = TargetArrays.of(gts)
        for idx in ([], [3], [11, 0, 5], list(rng.permutation(12)), [2, 2, 7]):
            taken = whole.take(idx)
            assert len(taken) == len(idx)
            assert _target_bytes(taken) == _target_bytes(TargetArrays.of([gts[i] for i in idx]))

    def test_empty_gives_zero_row_arrays(self):
        t = TargetArrays.of([])
        assert len(t) == 0
        assert t.classes.shape == (0,)
        assert [a.shape for a in _box_fields(t)] == [(0, w) for w in BOX_WIDTHS]
        assert t.corners.shape == (0, 4)


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
        got = component_loss(pred, range(2), [0], TargetArrays.of([gt])).item()

        onehot = np.zeros((2, 2))
        onehot[0, 0] = 1.0
        cls = _hand_focal(logits, onehot, FOCAL_ALPHA, FOCAL_GAMMA)
        center = abs(0.45 - 0.5) + abs(0.52 - 0.5)
        lrtb_l1 = abs(0.1 - 0.1) + abs(0.12 - 0.1) + abs(0.08 - 0.1) + abs(0.11 - 0.1)
        pred_box = (0.45 - 0.1, 0.52 - 0.08, 0.45 + 0.12, 0.52 + 0.11)
        giou_term = 1.0 - giou2d(pred_box, box2d_corners(gt))
        size_l1 = abs(3.2 - 3.5) + abs(1.8 - 1.6) + abs(1.4 - 1.5)
        angle_l1 = abs(0.2 - math.sin(0.3)) + abs(0.9 - math.cos(0.3))
        depth_l1 = abs(18.0 - 20.0)
        expected = (W_CLS * cls + W_CENTER * center + W_LRTB * lrtb_l1
                    + W_GIOU * giou_term + W_SIZE * size_l1
                    + W_ANGLE * angle_l1 + W_DEPTH * depth_l1)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_no_positives_only_background(self):
        logits = np.array([[2.0, -1.0], [0.5, 0.5]])
        pred = _pred_rows(logits, np.zeros((2, 2)), np.zeros((2, 4)),
                          np.zeros((2, 3)), np.zeros((2, 2)), np.ones((2, 1)))
        got = component_loss(pred, range(2), [], TargetArrays.of([])).item()
        expected = W_CLS * _hand_focal(logits, np.zeros((2, 2)), FOCAL_ALPHA, FOCAL_GAMMA)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_perfect_saturated_prediction_vanishes(self):
        gt = GroundTruthObject(1, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1,
                               3.5, 1.6, 1.5, 0.3, 20.0)
        logits = np.array([[-40.0, 40.0]])
        pred = _pred_rows(
            logits, np.array([[0.5, 0.5]]), np.array([[0.1, 0.1, 0.1, 0.1]]),
            np.array([[3.5, 1.6, 1.5]]),
            np.array([[math.sin(0.3), math.cos(0.3)]]), np.array([[20.0]]))
        got = component_loss(pred, range(1), [0], TargetArrays.of([gt])).item()
        assert got == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("block,positives", [
        (range(2, 7), [3, 0, 4]),   # a group's learnable rows, some matched
        (range(7, 10), [0, 1, 2]),  # a noisy block, every row positive
        (range(0, 4), []),          # no positives: background only
    ])
    def test_stacked_rows_equal_a_standalone_block(self, block, positives):
        """Reading a block in place is the loss of the block cut out, bit for bit."""
        rng = np.random.default_rng(21)
        stacked = [rng.uniform(0.05, 0.3, size=(10, w)) for w in (3, *BOX_WIDTHS)]
        gts = [GroundTruthObject(j % 3, 0.5, 0.4, 0.1, 0.2, 0.1, 0.1, 3.5, 1.6, 1.5, 0.3, 20.0)
               for j in range(len(positives))]
        stacked = np.concatenate(stacked, axis=1)
        results = []
        for array, rows in ((stacked, block),
                            (stacked[block.start:block.stop], range(len(block)))):
            leaf = nm.Tensor(array.copy(), requires_grad=True)
            loss = component_loss(leaf, rows, positives, TargetArrays.of(gts))
            nm.backward(loss)
            results.append((loss, leaf.grad))
        (whole, g_whole), (cut, g_cut) = results
        assert whole.data.tobytes() == cut.data.tobytes()
        assert g_whole[block.start:block.stop].tobytes() == g_cut.tobytes()
        assert not g_whole[:block.start].any() and not g_whole[block.stop:].any()
        if not positives:  # the box columns get no gradient
            assert not g_whole[:, 3:].any()

    def test_mismatched_counts_rejected(self):
        pred = _pred_rows(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 4)),
                          np.zeros((2, 3)), np.zeros((2, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            component_loss(pred, range(2), [0], TargetArrays.of([]))

    @pytest.mark.parametrize("shape", [(2, 12), (2, 11), (24,)])
    def test_rows_without_a_class_column_rejected(self, shape):
        """Prediction rows of 12 columns or fewer, which would leave no class
        column or shift the box columns, are refused."""
        gt = GroundTruthObject(0, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 3.5, 1.6, 1.5, 0.3, 20.0)
        with pytest.raises(nm.ShapeError, match="component_loss"):
            component_loss(nm.Tensor(np.ones(shape)), range(2), [1], TargetArrays.of([gt]))


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
    """The single-node terms against the same terms built from elementwise tape ops."""

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
            _assert_fused_matches(lambda ts: giou_loss(ts[0], ts[1], target, norm),
                                  lambda ts: composite_giou_loss(ts[0], ts[1], target, norm),
                                  [c, e], rng.normal())

    def test_corner_boxes(self):
        """Detached corner boxes are the composite's and the ones giou_loss scores."""
        rng = np.random.default_rng(12)
        centers, lrtb = (nm.Tensor(a) for a in _random_centers_lrtb(rng, 5))
        boxes = corner_boxes(centers.data, lrtb.data)
        assert boxes.tobytes() == composite_corner_boxes(centers, lrtb).data.tobytes()
        # every box against itself has GIoU 1
        assert giou_loss(centers, lrtb, boxes, 5.0).item() == pytest.approx(
            0.0, abs=1e-15)

    def test_l1_loss(self):
        rng = np.random.default_rng(13)
        target = rng.normal(size=(4, 3))
        pred = rng.normal(size=(4, 3))
        pred[0] = target[0]  # exact zeros: gradient 0 there in both
        _assert_fused_matches(lambda ts: l1_loss(ts[0], target, 3.0),
                              lambda ts: composite_l1_loss(ts[0], target, 3.0),
                              [pred], rng.normal())

    def test_component_loss_records_few_nodes(self):
        rng = np.random.default_rng(14)
        rows = 6
        pred = nm.Tensor(rng.random(size=(rows, 3 + sum(BOX_WIDTHS))), requires_grad=True)
        gts = [GroundTruthObject(k % 3, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 3.5, 1.6, 1.5, 0.3, 20.0)
               for k in range(4)]
        loss = component_loss(pred, range(rows), [0, 2, 3, 5], TargetArrays.of(gts))
        seen, stack = set(), [loss]
        while stack:
            t = stack.pop()
            if t._parents and id(t) not in seen:
                seen.add(id(t))
                stack.extend(t._parents)
        # the block loss alone; the prediction tensor is a leaf
        assert len(seen) == 1

    @pytest.mark.parametrize("layers", [1, 4])
    def test_decode_heads(self, layers):
        """The head op against narrows, softplus, tiled reference points and an add,
        with saturated raw values on both tails."""
        rng = np.random.default_rng(15 + layers)
        for trial in range(10):
            raw = rng.normal(size=(5 * layers, 3 + sum(BOX_WIDTHS))) * 4.0
            if trial % 2:
                raw[rng.random(size=raw.shape) < 0.2] = 40.0
                raw[rng.random(size=raw.shape) < 0.2] = -40.0
            ref = rng.uniform(0.0, 1.0, (5, 2))
            _assert_fused_matches(lambda ts: decode_heads(ts[0], ts[1]),
                                  lambda ts: composite_decode_heads(ts[0], ts[1]),
                                  [raw, ref], rng.normal(size=raw.shape))

    @pytest.mark.parametrize("raw_shape,ref_shape", [
        ((6, 15), (4, 2)), ((6, 12), (3, 2)), ((6, 15), (3, 3)), ((6, 15), (0, 2)), ((15,), (3, 2))])
    def test_decode_heads_rejects_mismatched_shapes(self, raw_shape, ref_shape):
        with pytest.raises(nm.ShapeError, match="decode_heads"):
            decode_heads(nm.Tensor(np.zeros(raw_shape)), nm.Tensor(np.zeros(ref_shape)))


def _block_args(rng, rows, block, positives, classes=3):
    """Random head outputs of ``rows`` rows, and ``component_loss``'s other arguments.

    Returns the six arrays (logits, then the box tensors) and the list
    [block, positions in the block, targets]. The targets' box and corner arrays are
    views of one table, so a test may overwrite them in place. Every target
    box is a real box.
    """
    arrays = [rng.normal(size=(rows, classes)) * 3.0,
              *_random_centers_lrtb(rng, rows), rng.uniform(1.0, 4.0, (rows, 3)),
              rng.normal(size=(rows, 2)), rng.uniform(5.0, 40.0, (rows, 1))]
    target_classes = np.array([rng.integers(classes) for _ in positives], dtype=np.intp)
    m = len(positives)
    box_targets = [a[[block[p] for p in positives]] + rng.normal(size=(m, a.shape[1])) * 0.05
                   for a in arrays[1:]]
    box_targets[1] = np.abs(box_targets[1])
    corners = _op_corners(box_targets[0], box_targets[1])
    table = np.concatenate([*box_targets, corners], axis=1)
    return arrays, [block, positives, TargetArrays(target_classes, table)]


def _op(ts, block, positives, targets):
    return component_loss(ts[0], block, positives, targets)


def _reference(ts, block, positives, targets):
    """``reference_block_loss`` called with ``component_loss``'s arguments, on the
    six column blocks of the one prediction tensor."""
    logits, *boxes = split_prediction(ts[0])
    onehot = np.zeros((len(block), logits.data.shape[1]))
    onehot[list(positives), targets.classes] = 1.0
    return reference_block_loss(logits, boxes, block, [block[p] for p in positives], onehot,
                                _box_fields(targets), targets.corners, float(max(1, len(targets))))


def _taped(build, arrays, upstream):
    """``_value_and_grads`` of ``build`` on the one prediction tensor of ``arrays``,
    as bytes, for bitwise comparison."""
    out, grads = _value_and_grads(build, [np.concatenate(arrays, axis=1)], upstream)
    return [out.tobytes()] + [g.tobytes() for g in grads]


def _assert_bitwise(arrays, args, upstream):
    """``component_loss`` on ``arrays`` equals ``reference_block_loss``, value and gradients."""
    def build(op):
        return lambda ts: op(ts, *args)

    assert _taped(build(_op), arrays, upstream) == _taped(build(_reference), arrays, upstream)


class TestBlockLossBitwise:
    """``component_loss`` equals the 14-node composition it replaced, bit for bit."""

    @pytest.mark.parametrize("block,positives", [
        (range(2, 7), [3, 0, 4]),   # learnable rows of a larger stack, some matched
        (range(7, 10), range(3)),   # a noisy block read in place, every row positive
        (range(0, 10), [9, 0, 4, 1]),  # the whole stack
        (range(3, 8), []),          # no positives: background only
        ([9, 3, 4, 0], [2]),        # rows that are no range
    ])
    def test_equals_reference(self, block, positives):
        rng = np.random.default_rng(31)
        for _ in range(4):
            arrays, args = _block_args(rng, 10, block, positives)
            _assert_bitwise(arrays, args, rng.uniform(0.1, 3.0))

    def test_saturated_logits(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            arrays, args = _block_args(rng, 9, range(1, 8), [] if trial % 2 else [2, 5])
            logits = arrays[0]
            logits[rng.random(size=logits.shape) < 0.4] = 40.0
            logits[rng.random(size=logits.shape) < 0.4] = -40.0
            _assert_bitwise(arrays, args, rng.normal())

    def test_giou_ties_and_touching_boxes(self):
        """The min/max ties and degenerate intersections of ``test_giou_loss``."""
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
        arrays, args = _block_args(rng, m + 2, range(m + 2), list(range(1, m + 1)))
        arrays[1][1:m + 1], arrays[2][1:m + 1] = centers, lrtb
        args[2].corners[:] = special
        _assert_bitwise(arrays, args, rng.normal())
        for _ in range(10):
            arrays, args = _block_args(rng, 8, range(1, 8), [5, 0, 1, 4, 3, 2])
            own = _op_corners(arrays[1], arrays[2])[[6, 1, 2, 5, 4, 3]]
            # near the prediction; copy some of its coordinates to tie
            target = own + rng.uniform(-0.04, 0.04, size=own.shape)
            args[2].corners[:] = np.where(rng.random(size=own.shape) < 0.3, own, target)
            _assert_bitwise(arrays, args, rng.normal())

    def test_l1_exact_zeros(self):
        rng = np.random.default_rng(13)
        arrays, args = _block_args(rng, 6, range(6), [4, 0, 3])
        # exact zeros: gradient 0 there in both
        args[2].boxes[1] = np.concatenate(arrays[1:], axis=1)[0]
        for upstream in (0.8, -0.8):
            _assert_bitwise(arrays, args, upstream)

    def test_blocks_of_one_stack_summed(self):
        """Several blocks of one stack, added as the detector adds them."""
        rng = np.random.default_rng(32)
        layout = [(range(0, 4), [2, 0]), (range(4, 7), [0, 1, 2]), (range(7, 10), []),
                  (range(10, 12), [1])]
        arrays, _ = _block_args(rng, 12, range(12), [])
        cases = [_block_args(rng, 12, block, pos)[1] for block, pos in layout]

        def summed(op):
            return lambda ts: nm.weighted_sum([op(ts, *args) for args in cases],
                                              [1.0] * len(cases))

        assert _taped(summed(_op), arrays, 0.7) == _taped(summed(_reference), arrays, 0.7)

    def test_rows_checked(self):
        arrays, (block, _, targets) = _block_args(np.random.default_rng(33), 6, range(6), [1, 2])
        pred = nm.Tensor(np.concatenate(arrays, axis=1))
        with pytest.raises(ValueError, match="positives repeat a row"):
            component_loss(pred, block, [2, 2], targets)
        with pytest.raises(ValueError, match="block rows repeat a row"):
            component_loss(pred, [0, 1, 1, 2, 3, 4], [1, 2], targets)
        with pytest.raises(IndexError, match="block rows"):
            component_loss(pred, range(1, 7), [1, 2], targets)
        with pytest.raises(IndexError, match="positives"):
            component_loss(pred, block, [1, -1], targets)

    def test_positive_row_outside_the_block_rejected(self):
        """Position 3 is a row of the stack but not of the 2-row block."""
        arrays, (_, _, targets) = _block_args(np.random.default_rng(34), 4, range(4), [3])
        pred = nm.Tensor(np.concatenate(arrays, axis=1))
        with pytest.raises(IndexError,
                           match=r"component_loss: positives out of range for 2 rows"):
            component_loss(pred, range(2), [3], targets)
