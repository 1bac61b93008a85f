import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vqdet import numerics as nm
from vqdet.geometry import NoiseConfig
from vqdet.model import (
    Detector,
    DetectorConfig,
    decode_box_rows,
    inference,
    overall_loss,
    slice_prediction_rows,
    training_loss,
)
from vqdet.scenes import SceneConfig, generate_scene
from vqdet.vqd import DETERMINISTIC, VARIATIONAL, DenoisingConfig

TINY = DetectorConfig(groups=2, queries_per_group=3, noisy_groups=2, width=8,
                      heads=2, layers=2, feature_size=4, num_classes=2)
TINY_SCENE = SceneConfig(feature_size=4, num_classes=2, max_objects=2)


def _scene(seed=0, num_objects=None, cfg=TINY_SCENE):
    return generate_scene(np.random.default_rng(seed), cfg, f"s{seed}", seed,
                          num_objects=num_objects)


def _noisy(det, scene, seed=1):
    return det.draw_noisy_queries(scene, NoiseConfig(), np.random.default_rng(seed))


class TestConfig:
    def test_width_heads_divisibility(self):
        with pytest.raises(ValueError):
            DetectorConfig(width=10, heads=4)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            DetectorConfig(confidence_threshold=1.5)

    def test_defaults_follow_design(self):
        cfg = DetectorConfig()
        assert (cfg.groups, cfg.queries_per_group, cfg.noisy_groups) == (2, 16, 3)
        assert (cfg.width, cfg.heads, cfg.layers, cfg.feature_size) == (64, 4, 4, 16)
        assert (cfg.lambda_det, cfg.lambda_dn, cfg.lambda_distill) == (1.0, 1.0, 0.5)
        assert cfg.confidence_threshold == 0.2


class TestEncodeFeatures:
    def test_zero_grid_deterministic(self):
        det = Detector(TINY, seed=0)
        grid = np.zeros((4, 4, det.input_channels))
        a = det.encode_features(grid)
        b = det.encode_features(grid)
        assert a.data.shape == (16, 8)
        assert_array_equal(a.data, b.data)

    def test_output_shape_any_size(self):
        cfg = DetectorConfig(groups=1, queries_per_group=2, noisy_groups=0, width=8,
                             heads=2, layers=1, feature_size=6, num_classes=2)
        det = Detector(cfg, seed=0)
        out = det.encode_features(np.zeros((6, 6, det.input_channels)))
        assert out.data.shape == (36, 8)

    def test_rejects_wrong_shape(self):
        det = Detector(TINY, seed=0)
        with pytest.raises(ValueError, match="grid shape"):
            det.encode_features(np.zeros((5, 4, det.input_channels)))


class TestDecoderForward:
    def test_single_layer_trace(self):
        cfg = DetectorConfig(groups=1, queries_per_group=2, noisy_groups=0, width=8,
                             heads=2, layers=1, feature_size=4, num_classes=2)
        det = Detector(cfg, seed=1)
        scene = _scene(2, cfg=SceneConfig(feature_size=4, num_classes=2))
        memory = det.encode_features(scene.grid)
        queries, refs, mask, _ = det.build_group_inputs(None, DETERMINISTIC)
        trace = det.decoder_forward(memory, queries, refs, mask)
        assert len(trace.layers) == 1
        assert trace.layers[0].queries.data.shape == (2, 8)

    def test_learnable_path_unchanged_by_noisy_blocks(self):
        """Removing the noisy blocks leaves learnable outputs bit-identical."""
        det = Detector(TINY, seed=3)
        scene = _scene(4)
        noisy = _noisy(det, scene)
        memory = det.encode_features(scene.grid)

        q_with, refs_with, mask_with, _ = det.build_group_inputs(noisy, VARIATIONAL)
        trace_with = det.decoder_forward(memory, q_with, refs_with, mask_with)
        q_without, refs_without, mask_without, _ = det.build_group_inputs(None, VARIATIONAL)
        trace_without = det.decoder_forward(memory, q_without, refs_without, mask_without)

        n, s = TINY.queries_per_group, mask_with.size
        assert s > n
        for lw, lo in zip(trace_with.layers, trace_without.layers):
            for g in range(TINY.groups):
                assert_array_equal(lw.queries.data[g * s:g * s + n],
                                   lo.queries.data[g * n:(g + 1) * n])
                pw = slice_prediction_rows(lw.predictions, g * s, n)
                po = slice_prediction_rows(lo.predictions, g * n, n)
                assert_array_equal(pw.class_logits.data, po.class_logits.data)
                assert_array_equal(pw.centers.data, po.centers.data)

    def test_attention_maps_row_stochastic(self):
        det = Detector(TINY, seed=5)
        scene = _scene(6)
        noisy = _noisy(det, scene)
        memory = det.encode_features(scene.grid)
        queries, refs, mask, _ = det.build_group_inputs(noisy, VARIATIONAL)
        trace = det.decoder_forward(memory, queries, refs, mask)
        for layer in trace.layers:
            for attn in layer.attention:
                np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)
                assert_array_equal(attn[~mask.allow], 0.0)


class TestOverallLoss:
    def test_weighted_sum_value(self):
        out = overall_loss(nm.Tensor(2.0), nm.Tensor(1.0), nm.Tensor(4.0),
                           (1.0, 1.0, 0.5))
        assert out.item() == pytest.approx(5.0, abs=1e-12)

    def test_baseline_weights_reduce_to_detection(self):
        out = overall_loss(nm.Tensor(3.25), nm.Tensor(9.0), nm.Tensor(7.0),
                           (1.0, 0.0, 0.0))
        assert out.item() == 3.25


class TestTrainingLoss:
    def test_all_terms_finite_and_nonnegative(self):
        det = Detector(TINY, seed=7)
        scene = _scene(8)
        noisy = _noisy(det, scene)
        out = training_loss(det, scene, noisy, DenoisingConfig(beta=0.1))
        for t in (out.total, out.detection, out.denoising.total, out.distillation):
            assert np.isfinite(t.item())
        assert out.denoising.kl.item() >= 0.0
        assert out.distillation.item() >= 0.0

    def test_replay_reproduces_total_bitwise(self):
        det = Detector(TINY, seed=9)
        scene = _scene(10)
        noisy = _noisy(det, scene)
        first = training_loss(det, scene, noisy, DenoisingConfig(beta=0.1))
        second = training_loss(det, scene, noisy, DenoisingConfig(beta=0.1),
                               replay=first.decisions)
        assert first.total.item() == second.total.item()

    def test_denoising_gradient_reaches_learnable_queries(self):
        """The noisy->learnable attention path carries reconstruction gradient."""
        det = Detector(TINY, seed=11)
        scene = _scene(12)
        noisy = _noisy(det, scene)
        out = training_loss(det, scene, noisy, DenoisingConfig(beta=0.1))
        det.store.zero_grad()
        nm.backward(out.denoising.total, det.store)
        assert np.abs(det.store["queries.content"].grad).max() > 0

    def test_empty_scene_only_background_terms(self):
        det = Detector(TINY, seed=13)
        scene = _scene(14, num_objects=0)
        noisy = _noisy(det, scene)
        out = training_loss(det, scene, noisy, DenoisingConfig(beta=0.1))
        assert out.denoising.total.item() == 0.0
        assert np.isfinite(out.total.item())

    def test_fixed_noise_fixed_loss(self):
        det = Detector(TINY, seed=15)
        scene = _scene(16)
        noisy = _noisy(det, scene, seed=99)
        a = training_loss(det, scene, noisy, DenoisingConfig(beta=0.1))
        b = training_loss(det, scene, noisy, DenoisingConfig(beta=0.1))
        assert a.total.item() == b.total.item()


class TestInference:
    def test_threshold_one_empty(self):
        cfg = DetectorConfig(groups=2, queries_per_group=3, noisy_groups=2, width=8,
                             heads=2, layers=2, feature_size=4, num_classes=2,
                             confidence_threshold=1.0)
        det = Detector(cfg, seed=17)
        assert inference(det, _scene(18)) == []

    def test_deterministic(self):
        det = Detector(TINY, seed=19)
        scene = _scene(20)
        a = inference(det, scene)
        b = inference(det, scene)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da == db

    def test_training_mode_config_does_not_change_inference(self):
        """Same seed -> same weights; mode knobs must not leak into outputs."""
        scene = _scene(22)
        variants = [
            DetectorConfig(groups=2, queries_per_group=3, noisy_groups=0, width=8,
                           heads=2, layers=2, feature_size=4, num_classes=2,
                           lambda_dn=0.0, lambda_distill=0.0,
                           confidence_threshold=0.0),
            DetectorConfig(groups=2, queries_per_group=3, noisy_groups=2, width=8,
                           heads=2, layers=2, feature_size=4, num_classes=2,
                           lambda_dn=1.0, lambda_distill=0.5,
                           confidence_threshold=0.0),
            DetectorConfig(groups=2, queries_per_group=3, noisy_groups=3, width=8,
                           heads=2, layers=2, feature_size=4, num_classes=2,
                           lambda_dn=2.0, lambda_distill=0.0,
                           confidence_threshold=0.0),
        ]
        outputs = []
        for cfg in variants:
            det = Detector(cfg, seed=23)
            outputs.append(inference(det, scene))
        for other in outputs[1:]:
            assert len(other) == len(outputs[0])
            for da, db in zip(outputs[0], other):
                assert da == db

    def test_decode_box_rows_roundtrip_center(self):
        det = Detector(TINY, seed=25)
        scene = _scene(26)
        dets = inference(det, scene)
        if dets:
            assert all(d.box3d.z > 0 for d in dets)

    def test_identical_parameter_names_across_modes(self):
        base = Detector(DetectorConfig(groups=2, queries_per_group=3, noisy_groups=0,
                                       width=8, heads=2, layers=2, feature_size=4,
                                       num_classes=2), seed=1)
        full = Detector(TINY, seed=1)
        assert base.store.names() == full.store.names()
        for name in base.store.names():
            assert_array_equal(base.store[name].data, full.store[name].data)
