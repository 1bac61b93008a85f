import math
import os
import re
import signal
import threading
import time
import warnings
from collections import Counter
from dataclasses import astuple, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vqdet import model
from vqdet import numerics as nm
from vqdet.attention import build_denoising_mask
from vqdet.distill import forward_looking_distill, iou_weights, refine
from vqdet.geometry import (
    GroundTruthObject,
    NoiseConfig,
    OrientedBox3D,
    backproject,
    iou3d,
    project_to_image,
)
from vqdet.losses import (CENTER, LRTB, TargetArrays, block_terms, class_probs,
                          component_loss, corner_boxes)
from vqdet.matching import Assignment, hungarian, matching_cost
from vqdet.model import (
    Detector,
    DetectorConfig,
    decode_box_rows,
    inference,
    step_decisions,
    training_loss,
)
from vqdet.scenes import SceneConfig, generate_scene
from vqdet.vqd import BETA, DETERMINISTIC, VARIATIONAL, DenoisingConfig, VariationalQueryGenerator

from oracles import (HalfHeadsWorker, LateWorker, one_node_block_loss, real_worker, recorded,
                     scalar_box_noise, site_local_denoising_loss)

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

    @pytest.mark.parametrize("field,value", [
        ("lambda_distill", math.nan), ("lambda_distill", math.inf), ("lambda_distill", -0.5),
        ("groups", 0), ("queries_per_group", 0), ("noisy_groups", -1), ("width", 0),
        ("heads", 0), ("layers", 0), ("feature_size", 0), ("num_classes", 0),
    ])
    def test_bad_value_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            DetectorConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("noisy_groups", 1.5), ("layers", 2.0), ("queries_per_group", 2.5), ("groups", "2"),
        ("width", 64.0), ("heads", None), ("feature_size", True), ("num_classes", 3.0),
    ])
    def test_non_integer_count_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            DetectorConfig(**{field: value})

    @pytest.mark.parametrize("config,field,value", [
        (DetectorConfig, "lambda_distill", True), (DetectorConfig, "lambda_distill", "0.5"),
        (DetectorConfig, "confidence_threshold", "x"),
        (DetectorConfig, "confidence_threshold", None),
        *[(NoiseConfig, f.name, v) for f in fields(NoiseConfig) for v in (False, "x", None)],
    ])
    def test_non_real_float_field_rejected_naming_the_field(self, config, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            config(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        assert DetectorConfig(layers=np.int64(2)).layers == 2

    def test_defaults_follow_design(self):
        # the full option surface: a new knob has to change this test
        assert [f.name for f in fields(DetectorConfig)] == [
            "groups", "queries_per_group", "noisy_groups", "width", "heads", "layers",
            "feature_size", "num_classes", "lambda_distill", "confidence_threshold"]
        assert [f.name for f in fields(DenoisingConfig)] == ["mode"]
        cfg = DetectorConfig()
        assert (cfg.groups, cfg.queries_per_group, cfg.noisy_groups) == (2, 16, 3)
        assert (cfg.width, cfg.heads, cfg.layers, cfg.feature_size) == (64, 4, 4, 16)
        assert (cfg.lambda_distill, BETA) == (0.5, 0.1)
        assert cfg.confidence_threshold == 0.2
        store = Detector(cfg, seed=0).store
        assert store["dec0.ffn.1.w"].data.shape == (64, 128)  # FFN width 2 * width


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


class CountingGenerator:
    """A generator proxy that records the name of every method called on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)
        return counted


def _oracle_draw(cfg, objects, noise_cfg, seed):
    """The noisy boxes and latent noise of a step: the documented generator calls,
    then the scalar oracle fed one row of their draws per noisy box."""
    rng = np.random.default_rng(seed)
    n = cfg.groups * cfg.noisy_groups * len(objects)
    shift_edges = rng.uniform(-1.0, 1.0, (n, 6))
    flip_tests = rng.random(n)
    offsets = (rng.integers(cfg.num_classes - 1, size=n) if cfg.num_classes > 1
               else np.zeros(n, dtype=int))
    jitter = rng.uniform(-1.0, 1.0, (n, 5))
    eps = rng.standard_normal((n, cfg.width))
    gts = objects * (cfg.groups * cfg.noisy_groups)
    boxes = [scalar_box_noise(gt, noise_cfg, cfg.num_classes, *draws)
             for gt, *draws in zip(gts, shift_edges, flip_tests, offsets, jitter)]
    return TargetArrays.of(boxes), eps


# a box that often grows too wide to shift, one against the frame margin, and yaws
# next to ±pi
EDGE_BOXES = [GroundTruthObject(0, 0.5, 0.5, 0.7, 0.7, 0.7, 0.7, 4, 2, 1.5, 3.1, 20),
              GroundTruthObject(0, 0.01, 0.99, 0.2, 0.01, 0.01, 0.2, 29, 0.1, 1.5, -3.1, 110)]


class TestNoisyDraw:
    @pytest.mark.parametrize("k,noisy_groups,num_classes,flip", [
        (3, 3, 3, 0.25), (3, 3, 3, 0.0), (3, 3, 3, 1.0), (3, 3, 2, 1.0), (3, 3, 1, 1.0),
        (12, 3, 3, 0.25), (0, 3, 3, 0.25), (3, 0, 3, 0.25)])
    def test_rows_equal_target_arrays_of_the_scalar_oracle_bitwise(self, k, noisy_groups,
                                                                    num_classes, flip):
        cfg = replace(TINY, noisy_groups=noisy_groups, num_classes=num_classes)
        det = Detector(cfg, seed=0)
        scene = _scene(16, num_objects=k,
                       cfg=SceneConfig(feature_size=4, num_classes=num_classes, max_objects=12))
        if k:
            scene = replace(scene, objects=scene.objects[:-2] + EDGE_BOXES)
        noise_cfg = NoiseConfig(label_flip_prob=flip)
        for seed in range(5):
            noisy = det.draw_noisy_queries(scene, noise_cfg, np.random.default_rng(seed))
            want, eps = _oracle_draw(cfg, scene.objects, noise_cfg, seed)
            assert len(noisy.boxes) == 2 * noisy_groups * k
            assert noisy.boxes.classes.dtype == want.classes.dtype
            assert noisy.boxes.classes.tobytes() == want.classes.tobytes()
            assert noisy.boxes.table.tobytes() == want.table.tobytes()
            assert noisy.eps.tobytes() == eps.tobytes()

    def test_draw_is_reproducible_from_the_seed(self):
        det = Detector(TINY, seed=0)
        scene = _scene(18, num_objects=2)
        a, b = _noisy(det, scene, seed=3), _noisy(det, scene, seed=3)
        assert a.boxes.classes.tobytes() == b.boxes.classes.tobytes()
        assert a.boxes.table.tobytes() == b.boxes.table.tobytes()
        assert a.eps.tobytes() == b.eps.tobytes()

    @pytest.mark.parametrize("num_classes,calls", [
        (3, ["uniform", "random", "integers", "uniform", "standard_normal"]),
        (1, ["uniform", "random", "uniform", "standard_normal"])])
    def test_generator_calls_do_not_depend_on_the_object_count(self, num_classes, calls):
        cfg = replace(TINY, num_classes=num_classes)
        det = Detector(cfg, seed=0)
        scene_cfg = SceneConfig(feature_size=4, num_classes=num_classes, max_objects=12)
        for k in (0, 1, 4, 12):
            rng = CountingGenerator(np.random.default_rng(k))
            det.draw_noisy_queries(_scene(19, num_objects=k, cfg=scene_cfg), NoiseConfig(), rng)
            assert rng.calls == calls

    def test_noisy_reference_points_are_the_box_centers(self):
        det = Detector(TINY, seed=0)
        noisy = _noisy(det, _scene(17, num_objects=2))
        _, refs, allow, _ = det.build_group_inputs(noisy, VARIATIONAL)
        n, c, s = TINY.queries_per_group, TINY.noisy_groups, allow.shape[0]
        rows = [g * s + n + j for g in range(TINY.groups) for j in range(c * 2)]
        assert refs.data[rows].tobytes() == noisy.boxes.table[:, :2].tobytes()


class TestDecoderForward:
    def test_single_layer_trace(self):
        cfg = DetectorConfig(groups=1, queries_per_group=2, noisy_groups=0, width=8,
                             heads=2, layers=1, feature_size=4, num_classes=2)
        det = Detector(cfg, seed=1)
        scene = _scene(2, cfg=SceneConfig(feature_size=4, num_classes=2))
        memory = det.encode_features(scene.grid)
        queries, _, allow, _ = det.build_group_inputs(_noisy(det, scene), DETERMINISTIC)
        rows, final_map = det.decoder_forward(memory, queries, allow)
        assert len(rows) == 1 and final_map().shape == (1, 2, 2)
        assert rows[0].data.shape == (2, 8)

    def test_learnable_path_unchanged_by_noisy_blocks(self):
        """Removing the noisy blocks leaves learnable outputs bit-identical."""
        det = Detector(TINY, seed=3)
        scene = _scene(4)
        noisy = _noisy(det, scene)
        memory = det.encode_features(scene.grid)

        q_with, refs_with, allow_with, _ = det.build_group_inputs(noisy, VARIATIONAL)
        rows_with, _ = det.decoder_forward(memory, q_with, allow_with)
        plain = Detector(replace(TINY, noisy_groups=0), seed=3)  # the same weights
        q_without, refs_without, allow_without, _ = plain.build_group_inputs(
            _noisy(plain, scene), VARIATIONAL)
        rows_without, _ = plain.decoder_forward(memory, q_without, allow_without)

        n, s = TINY.queries_per_group, allow_with.shape[0]
        assert s > n
        for lw, lo in zip(rows_with, rows_without):
            for g in range(TINY.groups):
                assert_array_equal(lw.data[g * s:g * s + n], lo.data[g * n:(g + 1) * n])
                pw = det.apply_heads(lw, refs_with)
                po = det.apply_heads(lo, refs_without)
                assert_array_equal(pw.data[g * s:g * s + n], po.data[g * n:(g + 1) * n])

    def test_attention_maps_row_stochastic(self):
        det = Detector(TINY, seed=5)
        scene = _scene(6)
        noisy = _noisy(det, scene)
        memory = det.encode_features(scene.grid)
        queries, _, allow, _ = det.build_group_inputs(noisy, VARIATIONAL)
        _, final_map = det.decoder_forward(memory, queries, allow)
        for attn in final_map():
            np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)
            assert_array_equal(attn[~allow], 0.0)


class TestOverallLoss:
    """The total is ``nm.weighted_sum`` of the three terms by the lambdas."""

    def test_weighted_sum_value(self):
        out = nm.weighted_sum([nm.Tensor(2.0), nm.Tensor(1.0), nm.Tensor(4.0)],
                              (1.0, 1.0, 0.5))
        assert out.item() == pytest.approx(5.0, abs=1e-12)

    def test_baseline_weights_reduce_to_detection(self):
        out = nm.weighted_sum([nm.Tensor(3.25), nm.Tensor(9.0), nm.Tensor(7.0)],
                              (1.0, 0.0, 0.0))
        assert out.item() == 3.25

    def test_total_is_weighted_sum_of_terms(self):
        det = Detector(TINY, seed=7)
        scene = _scene(8)
        out = training_loss(det, scene, _noisy(det, scene), DenoisingConfig())
        want = (out.detection.data * 1.0 + out.denoising.total.data * 1.0
                + out.distillation.data * TINY.lambda_distill)
        assert out.total.data.tobytes() == want.tobytes()


class TestTrainingLoss:
    def test_all_terms_finite_and_nonnegative(self):
        det = Detector(TINY, seed=7)
        scene = _scene(8)
        noisy = _noisy(det, scene)
        out = training_loss(det, scene, noisy, DenoisingConfig())
        for t in (out.total, out.detection, out.denoising.total, out.distillation):
            assert np.isfinite(t.item())
        assert out.denoising.kl.item() >= 0.0
        assert out.distillation.item() >= 0.0

    def test_replay_reproduces_total_bitwise(self):
        det = Detector(TINY, seed=9)
        scene = _scene(10)
        noisy = _noisy(det, scene)
        first = training_loss(det, scene, noisy, DenoisingConfig())
        second = training_loss(det, scene, noisy, DenoisingConfig(),
                               replay=first.decisions)
        assert first.total.item() == second.total.item()

    def test_denoising_gradient_reaches_learnable_queries(self):
        """The noisy->learnable attention path carries reconstruction gradient."""
        det = Detector(TINY, seed=11)
        scene = _scene(12)
        noisy = _noisy(det, scene)
        out = training_loss(det, scene, noisy, DenoisingConfig())
        det.store.zero_grad()
        nm.backward(out.denoising.total, det.store)
        assert np.abs(det.store["queries.content"].grad).max() > 0

    def test_empty_scene_only_background_terms(self):
        det = Detector(TINY, seed=13)
        scene = _scene(14, num_objects=0)
        noisy = _noisy(det, scene)
        out = training_loss(det, scene, noisy, DenoisingConfig())
        assert out.denoising.total.item() == 0.0
        assert np.isfinite(out.total.item())

    @pytest.mark.parametrize("cfg,num_objects", [
        (replace(TINY, lambda_distill=0.0), 2),
        (TINY, 0),
    ])
    def test_no_distillation_replays_with_empty_lists(self, cfg, num_objects):
        det = Detector(cfg, seed=27)
        scene = _scene(28, num_objects=num_objects)
        noisy = _noisy(det, scene)
        first = training_loss(det, scene, noisy, DenoisingConfig())
        d = first.decisions
        assert d.distill_rows.size == d.distill_weights.size == d.teacher_rows.size == 0
        assert first.distillation.item() == 0.0
        again = training_loss(det, scene, noisy, DenoisingConfig(), replay=d)
        assert again.total.data.tobytes() == first.total.data.tobytes()

    @pytest.mark.parametrize("cfg,num_objects,mode,zero", [
        (TINY, 0, VARIATIONAL, ("vqg.", "aref.", "refiner.")),
        (TINY, 0, DETERMINISTIC, ("vqg.", "aref.", "refiner.")),
        (replace(TINY, noisy_groups=0), 2, VARIATIONAL, ("vqg.", "aref.")),
        (replace(TINY, lambda_distill=0.0), 2, VARIATIONAL, ("refiner.",)),
        (replace(TINY, layers=1), 2, VARIATIONAL, ("refiner.",)),
    ])
    def test_every_arm_takes_its_gradients_from_the_tape(self, cfg, num_objects, mode, zero):
        """Without a store, backward reaches every parameter the arm's ops read: a generator
        without noisy rows and a refiner without distillation rows get exact zeros."""
        det = Detector(cfg, seed=31)
        scene = _scene(32, num_objects=num_objects)
        out = training_loss(det, scene, _noisy(det, scene), DenoisingConfig(mode))
        nm.backward(out.total)
        # deterministic mode samples mu itself, so no op reads the log-variance head
        unread = ["vqg.lv.w", "vqg.lv.b"] if mode == DETERMINISTIC else []
        assert [name for name, t in det.store.items() if t.grad is None] == unread
        zeros = {name: t.grad for name, t in det.store.items()
                 if name.startswith(zero) and name not in unread}
        assert zeros and all(g.tobytes() == np.zeros_like(g).tobytes() for g in zeros.values())

    def test_only_variational_mode_runs_the_log_variance_head(self, monkeypatch):
        """Deterministic mode makes no clamp node, variational mode one. A deterministic
        step's loss and gradients are the bytes of an encoder that runs the head and
        drops its log-variance, which leaves a deterministic distribution."""
        scene = _scene(32, num_objects=2)
        clamps = []
        clamp = nm.clamp
        monkeypatch.setattr(nm, "clamp", lambda *args: clamps.append(args) or clamp(*args))

        def step(mode):
            clamps.clear()
            det = Detector(TINY, seed=31)
            out = training_loss(det, scene, _noisy(det, scene), DenoisingConfig(mode))
            nm.backward(out.total)
            grads = [name.encode() + (b"" if t.grad is None else t.grad.tobytes())
                     for name, t in det.store.items()]
            return len(clamps), [out.total.data.tobytes()] + grads

        (det_clamps, det_step), (var_clamps, var_step) = step(DETERMINISTIC), step(VARIATIONAL)
        assert (det_clamps, var_clamps) == (0, 1)
        assert det_step != var_step
        encode = VariationalQueryGenerator.encode
        monkeypatch.setattr(VariationalQueryGenerator, "encode", lambda self, boxes, mode: replace(
            encode(self, boxes, VARIATIONAL), log_var=None))
        assert step(DETERMINISTIC) == (1, det_step)

    @pytest.mark.parametrize("name", ["enc.proj.w", "dec0.ffn.1.w", "head.b",
                                      "queries.ref", "vqg.mu.b", "refiner.2.b"])
    def test_planted_nan_parameter_is_named_by_backward(self, name):
        """The matching cost's check or backward names the parameter, whichever sees it first."""
        det = Detector(TINY, seed=29)
        scene = _scene(30, num_objects=2)
        param = det.store[name]
        param.data.flat[3] = np.nan
        with pytest.raises(FloatingPointError,
                           match=re.escape(f"parameter '{name}' {param.data.shape}")):
            out = training_loss(det, scene, _noisy(det, scene), DenoisingConfig())
            # only the distillation term reads the refiner
            assert name == "refiner.2.b" and np.isfinite(out.detection.item())
            nm.backward(out.total, det.store)

    def test_fixed_noise_fixed_loss(self):
        det = Detector(TINY, seed=15)
        scene = _scene(16)
        noisy = _noisy(det, scene, seed=99)
        a = training_loss(det, scene, noisy, DenoisingConfig())
        b = training_loss(det, scene, noisy, DenoisingConfig())
        assert a.total.item() == b.total.item()

    @pytest.mark.parametrize("drawn,scored", [(4, 2), (1, 3), (0, 2), (2, 0)])
    def test_draw_of_another_scene_rejected_naming_both_counts(self, drawn, scored):
        """G*C*K noisy rows for one scene's K objects do not score a scene of other K."""
        det = Detector(TINY, seed=15)
        noisy = _noisy(det, _scene(16, num_objects=drawn))
        rows = TINY.groups * TINY.noisy_groups * np.array([drawn, scored])
        with pytest.raises(ValueError, match=rf"has {rows[0]} rows, .* is {rows[1]} "):
            training_loss(det, _scene(17, num_objects=scored), noisy, DenoisingConfig())


def _stacked_rows(det, scene, noisy):
    """The step's layer-major stack of decoder rows, its head outputs, and S."""
    memory = det.encode_features(scene.grid)
    queries, refs, allow, _ = det.build_group_inputs(noisy, VARIATIONAL)
    rows, _ = det.decoder_forward(memory, queries, allow)
    stack = nm.concat_rows(rows)
    return stack, det.apply_heads(stack, refs), allow.shape[0]


class TestStepDecisions:
    def _decide(self, cfg, scene):
        det = Detector(cfg, seed=31)
        stack, pred, s = _stacked_rows(det, scene, _noisy(det, scene))
        return step_decisions(det, stack, pred, scene, TargetArrays.of(scene.objects), s), s

    def test_every_group_gives_one_positive_per_ground_truth(self):
        """G independent matches: each ground truth collects G positives per layer."""
        cfg = replace(TINY, groups=3)
        decisions, _ = self._decide(cfg, _scene(32, num_objects=1))
        assert len(decisions.assignments) == cfg.layers
        for layer in decisions.assignments:
            assert len(layer) == 3
            assert [a.gt_indices() for a in layer] == [[0]] * 3

    def test_distillation_rows_are_matched_and_noisy_rows(self, monkeypatch):
        scene = _scene(34, num_objects=2)
        det = Detector(TINY, seed=31)
        stack, pred, s = _stacked_rows(det, scene, _noisy(det, scene))
        weighed = []
        monkeypatch.setattr(model, "iou_weights",
                            lambda *a: weighed.append(a) or iou_weights(*a))
        decisions = step_decisions(det, stack, pred, scene, TargetArrays.of(scene.objects), s)
        n, k = TINY.queries_per_group, len(scene.objects)
        final = (TINY.layers - 1) * TINY.groups * s
        gt_boxes = [b for _, b in scene.gt_boxes3d()]
        rows, targets = [], []
        for g, assign in enumerate(decisions.assignments[-1]):
            noisy = list(range(g * s + n, (g + 1) * s))
            rows += [g * s + q for q in assign.query_indices()] + noisy
            # matched rows against their match, noisy row i of a block against gt i
            targets += assign.gt_indices() + [(r - g * s - n) % k for r in noisy]
        assert decisions.distill_rows.tolist() == rows
        boxes = decode_box_rows(pred.data, [final + r for r in rows])
        assert weighed == [(boxes, targets, gt_boxes)]  # one call per step
        want = np.array([iou3d(box, gt_boxes[j]) for box, j in zip(boxes, targets)])
        w = decisions.distill_weights
        assert w.tobytes() == (want / len(rows)).tobytes()
        assert w.shape == (len(rows),) and ((0.0 <= want) & (want <= 1.0)).all()
        assert decisions.teacher_rows.tobytes() == stack.data[[final + r for r in rows]].tobytes()


def _per_layer_reference(det, scene, noisy, dn_cfg, decisions):
    """The loss with the heads applied to each layer and every block scored alone."""
    cfg = det.cfg
    n, gts, groups = cfg.queries_per_group, scene.objects, cfg.groups
    memory = det.encode_features(scene.grid)
    queries, refs, allow, dist = det.build_group_inputs(noisy, dn_cfg.mode)
    rows, _ = det.decoder_forward(memory, queries, allow)
    preds = [det.apply_heads(layer, refs) for layer in rows]
    s, k = allow.shape[0], len(gts)
    detection = nm.Tensor(0.0)
    for pred, layer_assign in zip(preds, decisions.assignments):
        for g, assign in enumerate(layer_assign):
            detection = detection + one_node_block_loss(
                pred, range(g * s, g * s + n), assign.query_indices(),
                TargetArrays.of([gts[j] for j in assign.gt_indices()]))
    blocks = [range(g * s + lo, g * s + lo + k) for g in range(groups) for lo in range(n, s, k)]
    recon = nm.Tensor(0.0)
    for pred in preds:
        layer_term = nm.Tensor(0.0)
        for block in blocks:
            layer_term = layer_term + one_node_block_loss(pred, block, range(k),
                                                          TargetArrays.of(gts))
        recon = recon + layer_term * (1.0 / len(blocks))
    denoising = recon + nm.gaussian_kl(dist.mu, dist.log_var) * BETA
    # the weights are taken as given: step_decisions has already divided them by R
    distillation = nm.Tensor(0.0)
    for layer in rows[:-1]:
        for g in range(groups):
            in_g = decisions.distill_rows // s == g
            refined = refine(nm.gather_rows(layer, decisions.distill_rows[in_g]), det.refiner)
            distillation = distillation + nm.weighted_row_smooth_l1(
                refined, decisions.teacher_rows[in_g],
                decisions.distill_weights[in_g])
    total = detection + denoising + distillation * cfg.lambda_distill
    return total, detection, denoising, distillation


class TestStackedScoring:
    CFG = replace(TINY, layers=3)

    def _inputs(self):
        det = Detector(self.CFG, seed=41)
        scene = _scene(42, num_objects=2)
        return det, scene, _noisy(det, scene)

    def test_matches_per_layer_reference_in_value_and_gradient(self):
        det, scene, noisy = self._inputs()
        decided = training_loss(det, scene, noisy, DenoisingConfig()).decisions
        # untrained boxes rarely overlap their targets: give every distilled row a weight
        rng = np.random.default_rng(43)
        decisions = replace(decided, distill_weights=rng.uniform(0.1, 1.0,
                                                                 len(decided.distill_rows)))
        out = training_loss(det, scene, noisy, DenoisingConfig(), replay=decisions)
        assert out.distillation.item() > 0
        got = [out.total, out.detection, out.denoising.total, out.distillation]
        nm.backward(out.total, det.store)
        got_grads = {name: t.grad for name, t in det.store.items()}
        det.store.zero_grad()
        want = _per_layer_reference(det, scene, noisy, DenoisingConfig(), decisions)
        nm.backward(want[0], det.store)
        for a, b in zip(got, want):
            assert a.item() == pytest.approx(b.item(), rel=1e-12)
        # relative to the largest entry: some gradients (key biases) are rounding noise
        scale = max(np.abs(t.grad).max() for t in det.store.tensors())
        for name, t in det.store.items():
            assert np.abs(got_grads[name] - t.grad).max() <= 1e-12 * scale, name

    def test_one_matching_cost_equals_per_block_costs_bitwise(self, monkeypatch):
        det, scene, noisy = self._inputs()
        costs, solved = [], []
        monkeypatch.setattr(model, "matching_cost",
                            lambda *a: costs.append(matching_cost(*a)) or costs[-1])
        monkeypatch.setattr(model, "hungarian", lambda c: solved.append(c) or hungarian(c))
        stack, pred, s = _stacked_rows(det, scene, noisy)
        decisions = step_decisions(det, stack, pred, scene, TargetArrays.of(scene.objects), s)
        n = self.CFG.queries_per_group
        probs, centers, lrtb = class_probs(pred.data), pred.data[:, CENTER], pred.data[:, LRTB]
        assert len(costs) == 1 and len(solved) == self.CFG.layers * self.CFG.groups
        for b, given in enumerate(solved):
            rows_b = slice(b * s, b * s + n)
            alone = matching_cost(probs[rows_b], centers[rows_b], lrtb[rows_b],
                                  TargetArrays.of(scene.objects))
            assert alone.tobytes() == given.tobytes()
            layer, g = divmod(b, self.CFG.groups)
            assert hungarian(alone).pairs == decisions.assignments[layer][g].pairs

    @pytest.mark.parametrize("cfg,scene_cfg,num_objects,blank", [
        # 12 detection blocks and 3 noisy blocks a layer; at these seeds either
        # sum reversed, or 1/3 weighing each block instead of the layer's sum,
        # changes the rounding
        (replace(TINY, layers=4, groups=3, noisy_groups=1), TINY_SCENE, 2, False),
        (DetectorConfig(), SceneConfig(), 1, False),
        (DetectorConfig(), SceneConfig(), 4, False),
        (DetectorConfig(), SceneConfig(), 12, False),
        (DetectorConfig(), SceneConfig(), 4, True),
    ])
    def test_loss_sums_equal_the_plus_chains_bitwise(self, cfg, scene_cfg, num_objects, blank):
        """Detection and reconstruction sums, against ``+`` chains of the one-node
        block loss in value and gradient; with ``blank``, a detection block has no
        positives. A graph is walked once, so every backward gets its own forward."""
        det = Detector(cfg, seed=49)
        scene = _scene(50, num_objects=num_objects, cfg=scene_cfg)
        noisy = _noisy(det, scene)
        decisions = training_loss(det, scene, noisy, DenoisingConfig()).decisions
        if blank:
            first, *rest = decisions.assignments
            decisions = replace(decisions, assignments=[[Assignment([], 0.0), *first[1:]], *rest])
        n, gts, k = cfg.queries_per_group, scene.objects, len(scene.objects)

        def detection(pred, s):
            chain = nm.Tensor(0.0)
            for b, assign in enumerate(a for layer in decisions.assignments for a in layer):
                chain = chain + one_node_block_loss(
                    pred, range(b * s, b * s + n), assign.query_indices(),
                    TargetArrays.of([gts[j] for j in assign.gt_indices()]))
            return chain

        def reconstruction(pred, s):
            chain = nm.Tensor(0.0)
            for layer in range(cfg.layers):
                blocks = [range(b * s + lo, b * s + lo + k)
                          for b in range(layer * cfg.groups, (layer + 1) * cfg.groups)
                          for lo in range(n, s, k)]
                terms = [one_node_block_loss(pred, block, range(k), TargetArrays.of(gts))
                         for block in blocks]
                chain = chain + sum(terms[1:], terms[0]) * (1.0 / len(blocks))
            return chain

        for site, plus_chain in ((lambda out: out.detection, detection),
                                 (lambda out: out.denoising.reconstruction, reconstruction)):
            got = site(training_loss(det, scene, noisy, DenoisingConfig(), replay=decisions))
            _, pred, s = _stacked_rows(det, scene, noisy)
            want = plus_chain(pred, s)
            assert got.data.tobytes() == want.data.tobytes()
            grads = []
            for loss in (got, want):
                det.store.zero_grad()
                nm.backward(loss, det.store)
                grads.append(b"".join(t.grad.tobytes() for t in det.store.tensors()))
            assert grads[0] == grads[1]

    @pytest.mark.parametrize("mode", [VARIATIONAL, DETERMINISTIC])
    @pytest.mark.parametrize("num_objects", [0, 3, 12])
    def test_one_kernel_call_equals_a_call_per_site_bitwise(self, num_objects, mode):
        """The step scores detection and noisy blocks in one ``block_terms`` call:
        its values and every parameter gradient are those of a detection call and
        the site-local denoising oracle's call, bit for bit."""
        cfg = DetectorConfig()
        det = Detector(cfg, seed=61)
        scene = generate_scene(np.random.default_rng(62), SceneConfig(), "s62", 62,
                               num_objects=num_objects)
        noisy = _noisy(det, scene)
        out = training_loss(det, scene, noisy, DenoisingConfig(mode))
        queries, refs, allow, dist = det.build_group_inputs(noisy, mode)
        rows, _ = det.decoder_forward(det.encode_features(scene.grid), queries, allow)
        stack = nm.concat_rows(rows)
        pred = det.apply_heads(stack, refs)
        n, s, k, decisions = cfg.queries_per_group, allow.shape[0], num_objects, out.decisions
        assigned = [a for layer in decisions.assignments for a in layer]
        terms, blocks = block_terms(
            pred, [range(b * s, b * s + n) for b in range(len(assigned))],
            [a.query_indices() for a in assigned],
            scene.targets.take([j for a in assigned for j in a.gt_indices()]))
        detection = nm.weighted_sum([component_loss(terms, block) for block in blocks],
                                    [1.0] * len(blocks))
        noisy_blocks = [[range(b * s + lo, b * s + lo + k)
                         for b in range(layer * cfg.groups, (layer + 1) * cfg.groups)
                         for lo in range(n, s, k)] for layer in range(cfg.layers)] if k else []
        dn = site_local_denoising_loss(pred, noisy_blocks, scene.targets, dist)
        distillation = forward_looking_distill(stack, cfg.layers, decisions.distill_rows,
                                               decisions.distill_weights, det.refiner,
                                               decisions.teacher_rows)
        total = nm.weighted_sum([detection, dn.total, distillation],
                                [1.0, 1.0, cfg.lambda_distill])
        for got, want in ((out.detection, detection),
                          (out.denoising.reconstruction, dn.reconstruction),
                          (out.denoising.kl, dn.kl), (out.total, total)):
            assert got.data.tobytes() == want.data.tobytes()
        grads = []
        for loss in (out.total, total):
            det.store.zero_grad()
            nm.backward(loss, det.store)
            grads.append([t.grad.tobytes() for t in det.store.tensors()])
        assert grads[0] == grads[1]

    def test_heads_and_matching_cost_run_once_per_step(self, monkeypatch):
        det, scene, noisy = self._inputs()
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(Detector, "apply_heads", counted("heads", Detector.apply_heads))
        monkeypatch.setattr(model, "matching_cost", counted("cost", matching_cost))
        monkeypatch.setattr(model, "hungarian", counted("hungarian", hungarian))
        training_loss(det, scene, noisy, DenoisingConfig())
        assert calls == {"heads": 1, "cost": 1,
                         "hungarian": self.CFG.layers * self.CFG.groups}


class TestHeads:
    def test_one_head_layer_of_six_column_blocks(self):
        store = Detector(DetectorConfig(), seed=7).store
        assert len(store.names()) == 143
        assert [name for name in store.names() if name.startswith("head")] == ["head.w", "head.b"]
        assert store["head.w"].data.shape == (64, 15)
        assert store["head.b"].data.tolist() == [-2.5] * 3 + [0.0] * 2 + [-1.8] * 4 + [1.5] * 3 \
            + [0.0] * 2 + [20.0]

    @pytest.mark.parametrize("num_objects", [1, 2, 3, 4, 12])
    def test_default_train_step_tape(self, num_objects):
        """At most 161 nodes a step, one of them the row kernel that sums the
        seven terms of each of the 8 detection and 24 noisy blocks; the heads add
        2 after the output layer norm (10 before: six affine layers, three
        softplus and the reference add)."""
        det = Detector(DetectorConfig(), seed=7)
        scene = generate_scene(np.random.default_rng(7), SceneConfig(), "s7", 7,
                               num_objects=num_objects)
        noisy = _noisy(det, scene, seed=8)
        out = training_loss(det, scene, noisy, DenoisingConfig())
        step = recorded([out.total])
        assert len(step) <= 161
        (kernel,) = [t for t in step if t._vjp.__qualname__.split(".")[0] == "block_terms"]
        assert kernel.data.shape == (32, 7)
        queries, refs, allow, _ = det.build_group_inputs(noisy, VARIATIONAL)
        rows, _ = det.decoder_forward(det.encode_features(scene.grid), queries, allow)
        stack = nm.concat_rows(rows)
        added = recorded([det.apply_heads(stack, refs)], [stack, refs])
        assert sorted(t._vjp.__qualname__.split(".")[0] for t in added) == [
            "decode_heads", "layer_norm", "linear"]


class TestInference:
    def test_threshold_one_empty(self):
        cfg = DetectorConfig(groups=2, queries_per_group=3, noisy_groups=2, width=8,
                             heads=2, layers=2, feature_size=4, num_classes=2,
                             confidence_threshold=1.0)
        det = Detector(cfg, seed=17)
        assert inference(det, _scene(18)) == []

    def test_equals_final_layer_of_taped_decoder(self):
        """Untaped, final-layer-only decoding gives the taped path's values bitwise."""
        det = Detector(replace(TINY, confidence_threshold=0.0), seed=21)
        scene = _scene(22)
        memory = det.encode_features(scene.grid)
        n = TINY.queries_per_group
        queries, refs = (nm.gather_rows(t, range(n)) for t in det.learnable_queries())
        rows, _ = det.decoder_forward(memory, queries, build_denoising_mask(n, 0, 0))
        pred = det.apply_heads(rows[-1], refs)
        assert pred.requires_grad
        boxes = decode_box_rows(pred.data, list(range(n)))
        probs = class_probs(pred.data)
        corners = corner_boxes(pred.data[:, CENTER], pred.data[:, LRTB])
        dets = inference(det, scene)
        assert len(dets) == n
        for r, d in enumerate(dets):
            assert d.score == float(probs[r].max()) and d.category == int(probs[r].argmax())
            assert d.box3d == boxes[r] and d.corners2d == tuple(corners[r])

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
                           lambda_distill=0.0,
                           confidence_threshold=0.0),
            DetectorConfig(groups=2, queries_per_group=3, noisy_groups=2, width=8,
                           heads=2, layers=2, feature_size=4, num_classes=2,
                           lambda_distill=0.5,
                           confidence_threshold=0.0),
            DetectorConfig(groups=2, queries_per_group=3, noisy_groups=3, width=8,
                           heads=2, layers=2, feature_size=4, num_classes=2,
                           lambda_distill=0.0,
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

    def test_kept_rows_equal_decoding_every_row_then_filtering(self, monkeypatch):
        """Only kept rows are decoded, bit for bit as when every row is, and a NaN
        score is kept."""
        det = Detector(DetectorConfig(), seed=26)
        scene = generate_scene(np.random.default_rng(27), SceneConfig(), "s27", 27)

        def with_nan_row(pred):
            probs = class_probs(pred)
            probs[3] = np.nan
            return probs

        decoded = []

        def counted(pred, rows):
            decoded.append(len(rows))
            return decode_box_rows(pred, rows)

        monkeypatch.setattr(model, "class_probs", with_nan_row)
        monkeypatch.setattr(model, "decode_box_rows", counted)
        every = inference(Detector(replace(det.cfg, confidence_threshold=0.0), seed=26), scene)
        assert len(every) == det.cfg.queries_per_group
        threshold = float(np.median([d.score for d in every if not math.isnan(d.score)]))
        kept = inference(Detector(replace(det.cfg, confidence_threshold=threshold), seed=26),
                         scene)
        want = [d for d in every if not d.score < threshold]
        assert 1 < len(kept) < len(every) and decoded == [len(every), len(kept)]
        assert [repr(d) for d in kept] == [repr(d) for d in want]
        assert sum(math.isnan(d.score) for d in kept) == 1

    def test_decode_box_rows_roundtrip_center(self):
        """The one array pass equals a per-row scalar lift, bit for bit, as plain floats."""
        rng = np.random.default_rng(25)
        m = 12
        logits, centers, lrtb, size3d, angle, depths = (
            rng.normal(size=(m, 2)), rng.uniform(-0.2, 1.2, (m, 2)), rng.uniform(0.0, 0.4, (m, 4)),
            rng.uniform(0.1, 8.0, (m, 3)), rng.normal(size=(m, 2)), rng.uniform(0.5, 90.0, (m, 1)))
        pred = np.concatenate([logits, centers, lrtb, size3d, angle, depths], axis=1)
        rows = [7, 0, 11, 3, 3]
        boxes = decode_box_rows(pred, rows)
        assert len(boxes) == len(rows) and decode_box_rows(pred, []) == []
        for r, box in zip(rows, boxes):
            u, v, d = (float(x) for x in (centers[r, 0], centers[r, 1], depths[r, 0]))
            sin, cos = angle[r].tolist()
            lifted = OrientedBox3D(*backproject(u, v, d), *size3d[r].tolist(),
                                   math.atan2(sin, cos))
            assert all(type(x) is float for x in astuple(box))
            assert [x.hex() for x in astuple(box)] == [x.hex() for x in astuple(lifted)]
            pu, pv = project_to_image((box.x, box.y, box.z))
            assert abs(pu - u) <= 1e-12 and abs(pv - v) <= 1e-12
            assert box.z.hex() == d.hex()

    def test_identical_parameter_names_across_modes(self):
        base = Detector(DetectorConfig(groups=2, queries_per_group=3, noisy_groups=0,
                                       width=8, heads=2, layers=2, feature_size=4,
                                       num_classes=2), seed=1)
        full = Detector(TINY, seed=1)
        assert base.store.names() == full.store.names()
        for name in base.store.names():
            assert_array_equal(base.store[name].data, full.store[name].data)


class TestWorkerThread:
    SCENE = generate_scene(np.random.default_rng(7), SceneConfig(), "s7", 7)

    def _step(self):
        det = Detector(DetectorConfig(confidence_threshold=0.0), seed=7)
        out = training_loss(det, self.SCENE, _noisy(det, self.SCENE, seed=8), DenoisingConfig())
        nm.backward(out.total)
        return det, out

    def _run(self):
        det, out = self._step()
        held_out = [generate_scene(np.random.default_rng(s), SceneConfig(), f"h{s}", s)
                    for s in range(50, 54)]
        return ([out.total.data.tobytes()]
                + [name.encode() + t.grad.tobytes() for name, t in det.store.items()]
                + [repr(inference(det, s)).encode() for s in held_out])

    @pytest.mark.parametrize("kind", ["real", "half_heads", "late"])
    def test_train_step_and_inference_bitwise_with_worker_on_and_off(self, kind, monkeypatch):
        """A default step's loss and every gradient, and inference on 4 held-out
        scenes, are the same bytes whether the encoder's heads run on the caller
        alone or shared with another thread, which may start early or never."""
        real = real_worker()
        monkeypatch.setattr(nm, "_worker", None)
        alone = self._run()
        worker = {"real": real, "half_heads": HalfHeadsWorker(), "late": LateWorker()}[kind]
        monkeypatch.setattr(nm, "_worker", worker)
        assert self._run() == alone
        if kind == "half_heads":
            worker.pool.shutdown()
            assert worker.calls == ["forward", "backward"] + ["forward"] * 4

    def test_a_step_submits_two_jobs_and_inference_one(self, monkeypatch):
        """The encoder attention's forward and its VJP are the worker's only jobs in a
        default step, and its forward the only one in inference."""
        worker, jobs = real_worker(), []

        def submit(fn, *args):
            jobs.append(fn.__name__)
            return worker.submit(fn, *args)

        monkeypatch.setattr(nm, "_worker", SimpleNamespace(submit=submit))
        det, _ = self._step()
        assert jobs == ["forward", "backward"]
        inference(det, self.SCENE)
        assert jobs == ["forward", "backward", "forward"]

    def test_one_worker_thread_for_every_step_and_inference(self):
        """After the first step has started the worker thread, steps and inference start none."""
        self._step()
        before = threading.active_count()
        for _ in range(3):
            det, _ = self._step()
            inference(det, self.SCENE)
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_fresh_worker_and_the_parents_bytes(self, monkeypatch):
        """A forked child has no thread behind the parent's worker, so the fork hook gives
        it a new one, not yet started; its default step, backward and inference are the
        parent's bytes, and it exits in time (else it is killed and the test fails)."""
        monkeypatch.setattr(nm, "_worker", real_worker())
        want = self._run()  # the parent's worker thread is running from here on
        parent_worker = nm._worker
        read_end, write_end = os.pipe()
        with warnings.catch_warnings():  # fork() in a multi-threaded process may warn
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child reports through the pipe and never returns into pytest
            code = 1
            try:
                worker = nm._worker
                fresh = worker is not parent_worker and (worker is None
                                                         or worker.thread.ident is None)
                same = self._run() == want
                served = worker is None or worker.thread.is_alive()
                os.write(write_end, f"{fresh} {same} {served}".encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        with os.fdopen(read_end, "rb") as pipe:
            report = pipe.read().decode()
        assert status[0] == pid, "the forked child did not exit within 60 s"
        assert os.waitstatus_to_exitcode(status[1]) == 0
        assert report == "True True True"
