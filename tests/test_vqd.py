import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vqdet import numerics as nm
from vqdet.geometry import GroundTruthObject
from vqdet.gradcheck import OP_TOLERANCE, check_gradients
from vqdet.losses import (CENTER, W_ANGLE, W_CENTER, W_CLS, W_DEPTH, W_GIOU, W_LRTB, W_SIZE,
                          TargetArrays)
from vqdet.vqd import (
    BETA,
    DETERMINISTIC,
    VARIATIONAL,
    DenoisingConfig,
    LatentDistribution,
    VariationalQueryGenerator,
    denoising_loss,
    sample_reparameterized,
)


def _generator(seed=0, num_classes=3, width=8):
    store = nm.ParameterStore(rng_seed=seed)
    return VariationalQueryGenerator(store, num_classes, width), store


def _noisy_boxes():
    return TargetArrays.of([
        GroundTruthObject(1, 0.4, 0.5, 0.1, 0.12, 0.08, 0.2, 3.5, 1.6, 1.5, 0.4, 11.0),
        GroundTruthObject(2, 0.6, 0.3, 0.05, 0.1, 0.1, 0.1, 0.8, 0.7, 1.8, -0.9, 7.0)])


class TestEncoder:
    def test_deterministic(self):
        gen, _ = _generator()
        boxes = _noisy_boxes()
        a = gen.encode(boxes, VARIATIONAL)
        b = gen.encode(boxes, VARIATIONAL)
        assert_array_equal(a.mu.data, b.mu.data)
        assert_array_equal(a.log_var.data, b.log_var.data)

    def test_empty_input_empty_output(self):
        gen, _ = _generator()
        dist = gen.encode(TargetArrays.of([]), VARIATIONAL)
        assert dist.mu.data.shape == (0, 8)
        assert nm.gaussian_kl(dist.mu, dist.log_var).item() == 0.0

    def test_category_out_of_range(self):
        gen, _ = _generator(num_classes=2)
        boxes = _noisy_boxes()
        with pytest.raises(IndexError, match="category"):
            gen.encode(boxes, VARIATIONAL)

    def test_deterministic_mode_runs_the_mu_head_alone(self):
        gen, _ = _generator()
        boxes = _noisy_boxes()
        dist = gen.encode(boxes, DETERMINISTIC)
        assert dist.log_var is None
        assert dist.mu.data.tobytes() == gen.encode(boxes, VARIATIONAL).mu.data.tobytes()

    def test_log_var_clamped(self):
        gen, store = _generator()
        store["vqg.lv.b"].data[:] = 50.0
        boxes = _noisy_boxes()
        dist = gen.encode(boxes, VARIATIONAL)
        assert dist.log_var.data.max() <= 10.0

    def test_gradient_through_embedding(self):
        gen, store = _generator(seed=11, width=6)
        boxes = _noisy_boxes()
        rng = np.random.default_rng(0)
        pm = rng.normal(size=(2, 6))

        def loss_fn():
            return nm.sum_all(gen.encode(boxes, VARIATIONAL).mu * nm.Tensor(pm))

        assert check_gradients(loss_fn, list(store.tensors())) <= OP_TOLERANCE


class TestReparameterization:
    def _dist(self, mu, log_var):
        return LatentDistribution(mu=nm.Tensor(mu), log_var=nm.Tensor(log_var))

    def test_zero_eps_returns_mu(self):
        mu = np.array([[1.0, -2.0]])
        dist = self._dist(mu, np.zeros((1, 2)))
        z = sample_reparameterized(dist, np.zeros((1, 2)))
        assert_array_equal(z.data, mu)

    def test_clamp_floor_vanishing_variance(self):
        mu = np.array([[0.5, 0.5]])
        dist = self._dist(mu, np.full((1, 2), -10.0))
        eps = np.array([[1.0, -1.0]])
        z = sample_reparameterized(dist, eps)
        assert np.abs(z.data - mu).max() <= math.exp(-5.0) + 1e-12

    def test_no_log_variance_is_mu(self):
        dist = LatentDistribution(mu=nm.Tensor(np.array([[0.3, 0.7]])), log_var=None)
        z = sample_reparameterized(dist, np.ones((1, 2)))
        assert z is dist.mu

    def test_sample_statistics(self):
        n, d = 10 ** 5, 4
        mu = np.tile([0.5, -1.0, 0.0, 2.0], (n, 1))
        log_var = np.tile([0.0, 1.0, -1.0, 0.5], (n, 1))
        dist = self._dist(mu, log_var)
        eps = np.random.default_rng(42).standard_normal((n, d))
        z = sample_reparameterized(dist, eps).data
        var = np.exp(log_var[0])
        for j in range(d):
            se = math.sqrt(var[j] / n)
            assert abs(z[:, j].mean() - mu[0, j]) <= 3 * se
            assert abs(z[:, j].var() - var[j]) <= 0.05 * var[j]

    def test_gradient_flows_to_mu_and_log_var_not_eps(self):
        mu = nm.Tensor(np.ones((2, 3)), requires_grad=True)
        log_var = nm.Tensor(np.zeros((2, 3)), requires_grad=True)
        dist = LatentDistribution(mu=mu, log_var=log_var)
        eps = np.full((2, 3), 0.7)
        z = sample_reparameterized(dist, eps)
        nm.backward(nm.sum_all(z))
        assert_array_equal(mu.grad, np.ones((2, 3)))
        np.testing.assert_allclose(log_var.grad, 0.5 * 0.7 * np.ones((2, 3)), atol=1e-12)


def _perfect_rows(gt: GroundTruthObject, rows=1, num_classes=2):
    """``rows`` stacked copies of a saturated, exact prediction of ``gt``."""
    logits = np.full((rows, num_classes), -40.0)
    logits[:, gt.c] = 40.0
    box = [gt.x_c, gt.y_c, gt.l, gt.r, gt.t, gt.b, gt.l3d, gt.w3d, gt.h3d,
           math.sin(gt.theta), math.cos(gt.theta), gt.d]
    return nm.Tensor(np.concatenate([logits, np.tile(box, (rows, 1))], axis=1))


class TestDenoisingLoss:
    GT = GroundTruthObject(1, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 3.5, 1.6, 1.5, 0.3, 20.0)

    def _dist(self, mu=0.0, log_var=0.0):
        """Latents of one row; a ``log_var`` of None makes them deterministic."""
        lv = None if log_var is None else nm.Tensor(np.full((1, 4), log_var))
        return LatentDistribution(mu=nm.Tensor(np.full((1, 4), mu)), log_var=lv)

    def test_perfect_reconstruction_and_standard_latent_is_zero(self):
        out = denoising_loss(_perfect_rows(self.GT), [[range(1)]], TargetArrays.of([self.GT]),
                             self._dist(0.0, 0.0))
        assert out.kl.item() == 0.0
        assert out.total.item() == pytest.approx(0.0, abs=1e-10)

    def test_no_log_variance_skips_kl(self):
        out = denoising_loss(_perfect_rows(self.GT), [[range(1)]], TargetArrays.of([self.GT]),
                             self._dist(3.0, None))
        assert out.kl.item() == 0.0
        assert out.total.item() == out.reconstruction.item()

    def test_hand_executed_tiny_instance(self):
        """K=1 block with known offsets; reconstruction + KL recomputed by hand."""
        gt = self.GT
        logits = np.array([[0.2, 1.1]])
        # logits, then center, lrtb, size3d, angle and depth
        pred = nm.Tensor(np.concatenate([logits, [[0.47, 0.55, 0.12, 0.1, 0.09, 0.1,
                                                   3.0, 1.5, 1.6, 0.1, 1.0, 21.5]]], axis=1))
        mu, log_var = 0.4, -0.6
        dist = LatentDistribution(mu=nm.Tensor(np.full((1, 3), mu)),
                                  log_var=nm.Tensor(np.full((1, 3), log_var)))
        out = denoising_loss(pred, [[range(1)]], TargetArrays.of([gt]), dist)

        from oracles import box2d_corners, giou2d
        p = 1.0 / (1.0 + np.exp(-logits))
        onehot = np.array([[0.0, 1.0]])
        cls = float((-(onehot * 0.25 * (1 - p) ** 2 * np.log(p))
                     - ((1 - onehot) * 0.75 * p ** 2 * np.log(1 - p))).sum())
        center = abs(0.47 - 0.5) + abs(0.55 - 0.5)
        lrtb = abs(0.12 - 0.1) + abs(0.1 - 0.1) + abs(0.09 - 0.1) + abs(0.1 - 0.1)
        pred_box = (0.47 - 0.12, 0.55 - 0.09, 0.47 + 0.1, 0.55 + 0.1)
        giou_term = 1.0 - giou2d(pred_box, box2d_corners(gt))
        size = abs(3.0 - 3.5) + abs(1.5 - 1.6) + abs(1.6 - 1.5)
        angle = abs(0.1 - math.sin(0.3)) + abs(1.0 - math.cos(0.3))
        depth = abs(21.5 - 20.0)
        recon = (W_CLS * cls + W_CENTER * center + W_LRTB * lrtb
                 + W_GIOU * giou_term + W_SIZE * size
                 + W_ANGLE * angle + W_DEPTH * depth)
        kl = 3 * 0.5 * (math.exp(log_var) + mu ** 2 - 1.0 - log_var)
        expected = recon + BETA * kl
        assert out.total.item() == pytest.approx(expected, abs=1e-10)
        assert out.kl.item() == pytest.approx(kl, abs=1e-12)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="targets"):
            denoising_loss(_perfect_rows(self.GT), [[range(1)]],
                           TargetArrays.of([self.GT, self.GT]), self._dist())

    def test_layer_and_block_normalization(self):
        """Two layers sum; two blocks in a layer average."""
        pred = _perfect_rows(self.GT, rows=2)
        pred.data[:, CENTER] += 0.03  # the same nonzero loss in both rows
        targets, dist = TargetArrays.of([self.GT]), self._dist(log_var=None)
        one = denoising_loss(pred, [[range(1)]], targets, dist)
        assert one.total.item() > 0.1
        two_blocks = denoising_loss(pred, [[range(1), range(1, 2)]], targets, dist)
        two_layers = denoising_loss(pred, [[range(1)], [range(1, 2)]], targets, dist)
        assert two_blocks.total.item() == pytest.approx(one.total.item(), abs=1e-12)
        assert two_layers.total.item() == pytest.approx(2 * one.total.item(), abs=1e-12)


def test_denoising_config_validation():
    with pytest.raises(ValueError):
        DenoisingConfig(mode="other")
