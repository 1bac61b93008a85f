from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vqdet import model
from vqdet import numerics as nm
from vqdet.attention import build_denoising_mask
from vqdet.distill import iou_weights, refine
from vqdet.geometry import NoiseConfig, iou3d
from vqdet.losses import component_loss
from vqdet.matching import hungarian, matching_cost
from vqdet.model import (
    Detector,
    DetectorConfig,
    decode_box_rows,
    inference,
    step_decisions,
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
        assert (cfg.lambda_dn, cfg.lambda_distill) == (1.0, 0.5)
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


class TestDecoderForward:
    def test_single_layer_trace(self):
        cfg = DetectorConfig(groups=1, queries_per_group=2, noisy_groups=0, width=8,
                             heads=2, layers=1, feature_size=4, num_classes=2)
        det = Detector(cfg, seed=1)
        scene = _scene(2, cfg=SceneConfig(feature_size=4, num_classes=2))
        memory = det.encode_features(scene.grid)
        queries, _, mask, _ = det.build_group_inputs(None, DETERMINISTIC)
        rows, maps = det.decoder_forward(memory, queries, mask)
        assert len(rows) == len(maps) == 1
        assert rows[0].data.shape == (2, 8)

    def test_learnable_path_unchanged_by_noisy_blocks(self):
        """Removing the noisy blocks leaves learnable outputs bit-identical."""
        det = Detector(TINY, seed=3)
        scene = _scene(4)
        noisy = _noisy(det, scene)
        memory = det.encode_features(scene.grid)

        q_with, refs_with, mask_with, _ = det.build_group_inputs(noisy, VARIATIONAL)
        rows_with, _ = det.decoder_forward(memory, q_with, mask_with)
        q_without, refs_without, mask_without, _ = det.build_group_inputs(None, VARIATIONAL)
        rows_without, _ = det.decoder_forward(memory, q_without, mask_without)

        n, s = TINY.queries_per_group, mask_with.size
        assert s > n
        for lw, lo in zip(rows_with, rows_without):
            for g in range(TINY.groups):
                assert_array_equal(lw.data[g * s:g * s + n], lo.data[g * n:(g + 1) * n])
                pw = det.apply_heads(lw, refs_with)
                po = det.apply_heads(lo, refs_without)
                assert_array_equal(pw.class_logits.data[g * s:g * s + n],
                                   po.class_logits.data[g * n:(g + 1) * n])
                assert_array_equal(pw.centers.data[g * s:g * s + n],
                                   po.centers.data[g * n:(g + 1) * n])

    def test_attention_maps_row_stochastic(self):
        det = Detector(TINY, seed=5)
        scene = _scene(6)
        noisy = _noisy(det, scene)
        memory = det.encode_features(scene.grid)
        queries, _, mask, _ = det.build_group_inputs(noisy, VARIATIONAL)
        _, maps = det.decoder_forward(memory, queries, mask)
        for layer_map in maps:
            for attn in layer_map:
                np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)
                assert_array_equal(attn[~mask.allow], 0.0)


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
        want = (out.detection.data * 1.0 + out.denoising.total.data * TINY.lambda_dn
                + out.distillation.data * TINY.lambda_distill)
        assert out.total.data.tobytes() == want.tobytes()


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
        assert d.distill_rows == [] and d.distill_weights == [] and d.teacher_rows == []
        assert first.distillation.item() == 0.0
        again = training_loss(det, scene, noisy, DenoisingConfig(), replay=d)
        assert again.total.data.tobytes() == first.total.data.tobytes()

    def test_planted_nan_parameter_is_named_by_backward(self):
        det = Detector(TINY, seed=29)
        scene = _scene(30, num_objects=2)
        det.store["refiner.2.b"].data[3] = np.nan  # reaches only the distillation term
        out = training_loss(det, scene, _noisy(det, scene), DenoisingConfig())
        assert np.isfinite(out.detection.item()) and np.isnan(out.total.item())
        with pytest.raises(FloatingPointError, match=r"parameter 'refiner\.2\.b' \(8,\)"):
            nm.backward(out.total, det.store)

    def test_fixed_noise_fixed_loss(self):
        det = Detector(TINY, seed=15)
        scene = _scene(16)
        noisy = _noisy(det, scene, seed=99)
        a = training_loss(det, scene, noisy, DenoisingConfig(beta=0.1))
        b = training_loss(det, scene, noisy, DenoisingConfig(beta=0.1))
        assert a.total.item() == b.total.item()


def _stacked_rows(det, scene, noisy):
    """The step's layer-major stack of decoder rows, its head outputs, and S."""
    memory = det.encode_features(scene.grid)
    queries, refs, mask, _ = det.build_group_inputs(noisy, VARIATIONAL)
    rows, _ = det.decoder_forward(memory, queries, mask)
    stack = nm.concat_rows(rows)
    return stack, det.apply_heads(stack, nm.concat_rows([refs] * det.cfg.layers)), mask.size


class TestStepDecisions:
    def _decide(self, cfg, scene):
        det = Detector(cfg, seed=31)
        stack, pred, s = _stacked_rows(det, scene, _noisy(det, scene))
        return step_decisions(det, stack, pred, scene, s), s

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
        decisions = step_decisions(det, stack, pred, scene, s)
        n, k = TINY.queries_per_group, len(scene.objects)
        final = (TINY.layers - 1) * TINY.groups * s
        gt_boxes = [b for _, b in scene.gt_boxes3d()]
        assert len(weighed) == TINY.groups  # one call per group
        for g, (rows, w, teacher) in enumerate(zip(decisions.distill_rows,
                                                   decisions.distill_weights,
                                                   decisions.teacher_rows)):
            assign = decisions.assignments[-1][g]
            noisy = list(range(g * s + n, (g + 1) * s))
            assert rows == [g * s + q for q in assign.query_indices()] + noisy
            # matched rows against their match, noisy row i of a block against gt i
            targets = assign.gt_indices() + [(r - g * s - n) % k for r in noisy]
            boxes = decode_box_rows(pred, [final + r for r in rows], scene.intrinsics)
            assert weighed[g] == (boxes, targets, gt_boxes)
            want = [iou3d(box, gt_boxes[j]) for box, j in zip(boxes, targets)]
            assert w.tobytes() == np.array(want).tobytes()
            assert w.shape == (len(rows),) and ((0.0 <= w) & (w <= 1.0)).all()
            assert teacher.shape == (len(rows), TINY.width)


def _per_layer_reference(det, scene, noisy, dn_cfg, decisions):
    """The loss with the heads applied to each layer and every block scored alone."""
    cfg, w = det.cfg, det.cfg.loss_weights
    n, gts, groups = cfg.queries_per_group, scene.objects, cfg.groups
    memory = det.encode_features(scene.grid)
    queries, refs, mask, dist = det.build_group_inputs(noisy, dn_cfg.mode)
    rows, _ = det.decoder_forward(memory, queries, mask)
    preds = [det.apply_heads(layer, refs) for layer in rows]
    s, k = mask.size, len(gts)
    detection = nm.Tensor(0.0)
    for pred, layer_assign in zip(preds, decisions.assignments):
        for g, assign in enumerate(layer_assign):
            detection = detection + component_loss(
                pred, range(g * s, g * s + n), [g * s + q for q in assign.query_indices()],
                [gts[j] for j in assign.gt_indices()], w)
    blocks = [range(g * s + lo, g * s + lo + k) for g in range(groups) for lo in range(n, s, k)]
    recon = nm.Tensor(0.0)
    for pred in preds:
        layer_term = nm.Tensor(0.0)
        for block in blocks:
            layer_term = layer_term + component_loss(pred, block, block, gts, w)
        recon = recon + layer_term * (1.0 / len(blocks))
    denoising = recon + nm.gaussian_kl(dist.mu, dist.log_var) * dn_cfg.beta
    distillation = nm.Tensor(0.0)
    for layer in rows[:-1]:
        layer_term = nm.Tensor(0.0)
        for r, weights, teacher in zip(decisions.distill_rows, decisions.distill_weights,
                                       decisions.teacher_rows):
            refined = refine(nm.gather_rows(layer, r), det.refiner)
            layer_term = layer_term + nm.weighted_row_smooth_l1(
                refined, nm.Tensor(teacher), weights) * (1.0 / len(r))
        distillation = distillation + layer_term * (1.0 / groups)
    total = detection + denoising * cfg.lambda_dn + distillation * cfg.lambda_distill
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
        decisions = replace(decided, distill_weights=[rng.uniform(0.1, 1.0, len(r))
                                                      for r in decided.distill_rows])
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
        decisions = step_decisions(det, stack, pred, scene, s)
        n = self.CFG.queries_per_group
        probs, centers, boxes = pred.class_probs(), pred.centers.data, pred.corner_boxes_array()
        assert len(costs) == 1 and len(solved) == self.CFG.layers * self.CFG.groups
        for b, given in enumerate(solved):
            rows_b = slice(b * s, b * s + n)
            alone = matching_cost(probs[rows_b], centers[rows_b], boxes[rows_b],
                                  scene.objects, self.CFG.matcher)
            assert alone.tobytes() == given.tobytes()
            layer, g = divmod(b, self.CFG.groups)
            assert hungarian(alone).pairs == decisions.assignments[layer][g].pairs

    def test_loss_sums_equal_the_plus_chains_bitwise(self):
        """Detection and reconstruction sums, against ``+`` chains in value and gradient."""
        # 12 detection blocks and 3 noisy blocks a layer; at these seeds either
        # sum reversed, or 1/3 weighing each block instead of the layer's sum,
        # changes the rounding
        cfg = replace(TINY, layers=4, groups=3, noisy_groups=1)
        det = Detector(cfg, seed=49)
        scene = _scene(50, num_objects=2)
        noisy = _noisy(det, scene)
        out = training_loss(det, scene, noisy, DenoisingConfig())
        w = cfg.loss_weights
        n, gts, k = cfg.queries_per_group, scene.objects, len(scene.objects)
        stack, pred, s = _stacked_rows(det, scene, noisy)
        detection = nm.Tensor(0.0)
        for b, assign in enumerate(a for layer in out.decisions.assignments for a in layer):
            detection = detection + component_loss(
                pred, range(b * s, b * s + n), [b * s + q for q in assign.query_indices()],
                [gts[j] for j in assign.gt_indices()], w)
        recon = nm.Tensor(0.0)
        for layer in range(cfg.layers):
            blocks = [range(b * s + lo, b * s + lo + k)
                      for b in range(layer * cfg.groups, (layer + 1) * cfg.groups)
                      for lo in range(n, s, k)]
            terms = [component_loss(pred, block, block, gts, w) for block in blocks]
            recon = recon + sum(terms[1:], terms[0]) * (1.0 / len(blocks))
        for got, want in ((out.detection, detection),
                          (out.denoising.reconstruction, recon)):
            assert got.data.tobytes() == want.data.tobytes()
            grads = []
            for loss in (got, want):
                det.store.zero_grad()
                nm.backward(loss, det.store)
                grads.append(b"".join(t.grad.tobytes() for t in det.store.tensors()))
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
        queries, refs = det.learnable_queries(1)
        n = TINY.queries_per_group
        rows, _ = det.decoder_forward(memory, queries, build_denoising_mask(n, 0, 0))
        pred = det.apply_heads(rows[-1], refs)
        assert pred.class_logits.requires_grad
        boxes = decode_box_rows(pred, list(range(n)), scene.intrinsics)
        probs, corners = pred.class_probs(), pred.corner_boxes_array()
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
