import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vqdet import numerics as nm
from vqdet.distill import RefinerParams, forward_looking_distill, iou_weights, refine
from vqdet.geometry import OrientedBox3D, iou3d


def _identity_refiner(d: int, offset: float = 50.0) -> RefinerParams:
    """ReLU MLP acting as the identity for inputs above -offset (test hook)."""
    return RefinerParams(
        w1=nm.Tensor(np.eye(d)), b1=nm.Tensor(np.full(d, offset)),
        w2=nm.Tensor(np.eye(d)), b2=nm.Tensor(np.full(d, -offset)))


def _random_refiner(rng, d: int) -> RefinerParams:
    return RefinerParams(
        w1=nm.Tensor(rng.normal(size=(d, d)) * 0.3),
        b1=nm.Tensor(rng.normal(size=d) * 0.1),
        w2=nm.Tensor(rng.normal(size=(d, d)) * 0.3),
        b2=nm.Tensor(rng.normal(size=d) * 0.1))


class TestIoUWeights:
    def test_matches_standalone_iou3d_bit_exactly(self):
        rng = np.random.default_rng(0)
        boxes = [OrientedBox3D(*rng.uniform(-2, 2, 3), *rng.uniform(1, 4, 3),
                               rng.uniform(-3, 3)) for _ in range(4)]
        gts = [OrientedBox3D(*rng.uniform(-2, 2, 3), *rng.uniform(1, 4, 3),
                             rng.uniform(-3, 3)) for _ in range(2)]
        w = iou_weights([boxes[1], boxes[3], boxes[0]], [0, 1, 1], gts)
        assert w.tolist() == [iou3d(boxes[1], gts[0]), iou3d(boxes[3], gts[1]),
                              iou3d(boxes[0], gts[1])]

    def test_perfect_prediction_weight_one(self):
        box = OrientedBox3D(0, 0, 10, 4, 2, 1.5, 0.3)
        assert_array_equal(iou_weights([box], [0], [box]), [1.0])

    def test_disjoint_prediction_weight_zero(self):
        a = OrientedBox3D(0, 0, 10, 4, 2, 1.5, 0.0)
        b = OrientedBox3D(50, 0, 10, 4, 2, 1.5, 0.0)
        assert_array_equal(iou_weights([a], [0], [b]), [0.0])


class TestForwardLookingDistill:
    def test_single_layer_is_zero(self):
        rng = np.random.default_rng(1)
        q = [nm.Tensor(rng.normal(size=(3, 4)))]
        out = _distill(q, [[0, 1]], [np.ones(2)], _random_refiner(rng, 4))
        assert out.item() == 0.0

    def test_identity_refiner_equal_layers_is_zero(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(4, 6))
        layers = [nm.Tensor(base.copy()) for _ in range(3)]
        out = _distill(layers, [[0, 2, 3]], [np.ones(3)], _identity_refiner(6))
        assert out.item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_executed_tiny_instance(self):
        """L=2, one group, identity refiner; weighted huber means by hand."""
        student = np.array([[0.2, -0.4], [1.0, 3.0], [0.0, 0.5]])
        teacher = np.array([[0.5, -0.4], [-1.0, 3.0], [0.0, 0.5]])
        layers = [nm.Tensor(student), nm.Tensor(teacher)]
        weights = np.array([0.8, 0.25])
        out = _distill(layers, [[0, 1]], [weights], _identity_refiner(2))
        # row 0: diffs (-0.3, 0) -> huber mean (0.5*0.09)/2 ; row 1: (2, 0) -> (1.5)/2
        expected = (0.8 * (0.5 * 0.09) / 2 + 0.25 * 1.5 / 2) / 2
        assert out.item() == pytest.approx(expected, abs=1e-10)

    def test_teacher_receives_no_gradient(self):
        rng = np.random.default_rng(3)
        layers = [nm.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
                  for _ in range(3)]
        refiner = _random_refiner(rng, 4)
        for t in (refiner.w1, refiner.b1, refiner.w2, refiner.b2):
            t.requires_grad = True
        out = _distill(layers, [[0, 1, 2]], [np.full(3, 0.7)], refiner)
        nm.backward(out)
        # the teacher shares the stack with the students, so it gets exact zeros
        assert not layers[-1].grad.any()
        for early in layers[:-1]:
            assert np.abs(early.grad).max() > 0

    def test_zero_weight_removes_query_contribution(self):
        rng = np.random.default_rng(4)
        layers = [nm.Tensor(rng.normal(size=(4, 5))) for _ in range(2)]
        refiner = _random_refiner(rng, 5)
        w = np.array([0.5, 0.9, 0.3])
        full = _distill(layers, [[0, 1, 3]], [w], refiner)
        zeroed = _distill(layers, [[0, 1, 3]], [np.array([0.5, 0.0, 0.3])], refiner)
        dropped_rows = [[0, 3]]
        # same normalization only if the row stays in the count; check linearity
        # instead: difference equals the removed row's isolated term
        only_row1 = _distill(layers, [[1]], [np.array([0.9])], refiner)
        assert full.item() - zeroed.item() == pytest.approx(
            0.9 * _row_term(layers, 1, refiner) / 3, abs=1e-12)
        assert only_row1.item() == pytest.approx(
            0.9 * _row_term(layers, 1, refiner), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            layers = [nm.Tensor(rng.normal(size=(3, 4))) for _ in range(3)]
            out = _distill(layers, [[0, 2]], [rng.random(2)], _random_refiner(rng, 4))
            assert out.item() >= 0.0

    def test_groups_address_their_rows_of_the_stacked_layer(self):
        rng = np.random.default_rng(7)
        layers = [nm.Tensor(rng.normal(size=(6, 4))) for _ in range(3)]
        refiner = _random_refiner(rng, 4)
        rows, weights = [[0, 2], [3, 5]], [rng.random(2), rng.random(2)]
        both = _distill(layers, rows, weights, refiner)
        alone = [_distill(layers, [r], [w], refiner).item()
                 for r, w in zip(rows, weights)]
        assert both.item() == pytest.approx(sum(alone) / 2, rel=1e-12)

    def test_one_call_equals_the_per_layer_and_group_loop(self):
        """L=4, G=2, nonzero weights: value and gradients of the per-(layer, group) loop."""
        rng = np.random.default_rng(8)
        data = [rng.normal(size=(10, 4)) for _ in range(4)]
        refiner_data = [rng.normal(size=(4, 4)) * 0.3, rng.normal(size=4) * 0.1,
                        rng.normal(size=(4, 4)) * 0.3, rng.normal(size=4) * 0.1]
        rows = [[0, 1, 3], [5, 7]]
        weights = [rng.uniform(0.1, 1.0, 3), rng.uniform(0.1, 1.0, 2)]
        teacher = [data[-1][r] for r in rows]

        def run(loop: bool):
            layers = [nm.Tensor(x, requires_grad=True) for x in data]
            refiner = RefinerParams(*(nm.Tensor(x, requires_grad=True) for x in refiner_data))
            if loop:
                total = nm.Tensor(0.0)
                for layer in layers[:-1]:
                    layer_term = nm.Tensor(0.0)
                    for r, w, t in zip(rows, weights, teacher):
                        refined = refine(nm.gather_rows(layer, r), refiner)
                        layer_term = layer_term + nm.weighted_row_smooth_l1(
                            refined, nm.Tensor(t), w) * (1.0 / len(r))
                    total = total + layer_term * (1.0 / len(rows))
            else:
                total = forward_looking_distill(nm.concat_rows(layers), len(layers), rows,
                                                weights, refiner, teacher)
            nm.backward(total)
            leaves = layers[:-1] + [refiner.w1, refiner.b1, refiner.w2, refiner.b2]
            return total.item(), [t.grad for t in leaves]

        (want, want_grads), (got, got_grads) = run(loop=True), run(loop=False)
        assert want > 0 and got == pytest.approx(want, rel=1e-12)
        for w, g in zip(want_grads, got_grads):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_empty_rows_contribute_zero(self):
        rng = np.random.default_rng(6)
        layers = [nm.Tensor(rng.normal(size=(3, 4))) for _ in range(2)]
        out = _distill(layers, [[]], [np.zeros(0)], _random_refiner(rng, 4))
        assert out.item() == 0.0


def _distill(layers, rows, weights, refiner):
    """The loss on the layers' stack, the final layer's values at ``rows`` the teacher."""
    return forward_looking_distill(nm.concat_rows(layers), len(layers), rows, weights,
                                   refiner, [layers[-1].data[r] for r in rows])


def _row_term(layers, row, refiner) -> float:
    """Mean-over-width huber between the refined student row and teacher row."""
    student = nm.gather_rows(layers[0], [row])
    refined = refine(student, refiner)
    d = refined.data - layers[1].data[[row]]
    ad = np.abs(d)
    return float(np.where(ad < 1, 0.5 * d * d, ad - 0.5).mean())
