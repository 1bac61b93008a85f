"""Negative controls for the benchmark's checks, and tests of its tracer and clock.

Every correctness check must pass on the program as it is and fail on a
planted fault. Run from the repository root:

    python3 -m pytest -q bench
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vqdet import model  # noqa: E402
from vqdet import numerics as nm  # noqa: E402
from vqdet.geometry import NoiseConfig  # noqa: E402
from vqdet.matching import Assignment, hungarian  # noqa: E402
from vqdet.model import Detector, DetectorConfig, inference, training_loss  # noqa: E402
from vqdet.scenes import SceneConfig  # noqa: E402
from vqdet.vqd import DenoisingConfig  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import make_scenes, stratified_counts  # noqa: E402

CFG = DetectorConfig()


@pytest.fixture(scope="module")
def step_inputs():
    det = Detector(CFG, seed=0)
    scene = make_scenes(0, [3], SceneConfig(), "train")[0]
    noisy = det.draw_noisy_queries(scene, NoiseConfig(), np.random.default_rng(1))
    return det, scene, noisy


def test_gradient_check_catches_one_scaled_gradient(step_inputs, monkeypatch):
    det, scene, noisy = step_inputs
    failures, report, unchecked = checks.gradient_check(
        det, scene, noisy, DenoisingConfig(), np.random.default_rng(2))
    assert failures == [] and unchecked == [] and len(report) >= 10
    target = report[0][0]
    backward = nm.backward

    def scaled(loss, store=None):
        backward(loss, store)
        store[target].grad *= 1.0 + 1e-3

    monkeypatch.setattr(nm, "backward", scaled)
    failures, _, _ = checks.gradient_check(det, scene, noisy, DenoisingConfig(),
                                           np.random.default_rng(2))
    assert len(failures) == 1 and target in failures[0]


def test_replay_check_catches_other_decisions(step_inputs):
    det, scene, noisy = step_inputs
    out = training_loss(det, scene, noisy, DenoisingConfig())
    assert checks.replay_check(det, scene, noisy, DenoisingConfig(),
                               out.total, out.decisions) == []
    first = out.decisions.assignments[0][0]
    shifted = Assignment([((q + 1) % CFG.queries_per_group, g) for q, g in first.pairs], 0.0)
    moved = replace(out.decisions, assignments=[[shifted, *out.decisions.assignments[0][1:]],
                                                *out.decisions.assignments[1:]])
    assert checks.replay_check(det, scene, noisy, DenoisingConfig(), out.total, moved)


def test_hungarian_check_catches_suboptimal_assignment():
    cost = np.random.default_rng(0).uniform(size=(16, 4))
    best = hungarian(cost)
    assert checks.assignment_optimal(cost, best) == []
    (q0, g0), (q1, g1), *rest = best.pairs
    swapped = Assignment(pairs=[(q0, g1), (q1, g0), *rest], total_cost=best.total_cost)
    assert checks.assignment_optimal(cost, swapped)
    assert checks.assignment_optimal(cost, Assignment(best.pairs[1:], 0.0))


def test_attention_check_catches_learnable_row_reading_noisy_column(step_inputs):
    det, scene, noisy = step_inputs
    maps = training_loss(det, scene, noisy, DenoisingConfig()).attention_maps
    n, k, c = CFG.queries_per_group, len(scene.objects), CFG.noisy_groups
    assert checks.attention_separation(maps, n, k, c) == []

    leaky = [m.copy() for m in maps]
    leaky[1][0, n + k] += 1e-3
    assert checks.attention_separation(leaky, n, k, c)

    crossing = [m.copy() for m in maps]
    crossing[0][n, n + k] += 1e-3
    assert checks.attention_separation(crossing, n, k, c)


def test_detection_check_catches_other_weights():
    held_out = make_scenes(5_000, stratified_counts(4), SceneConfig(), "test")
    every_row = replace(CFG, confidence_threshold=0.0)
    detections = [inference(Detector(every_row, seed=0), s) for s in held_out]
    plain = Detector(replace(every_row, noisy_groups=0, lambda_distill=0.0), seed=0)
    other = Detector(every_row, seed=1)
    assert all(len(dets) == CFG.queries_per_group for dets in detections)
    assert checks.detections_equal([inference(plain, s) for s in held_out], detections) == []
    assert checks.detections_equal([inference(other, s) for s in held_out], detections)
    assert checks.detection_properties([d for ds in detections for d in ds],
                                       0.0, CFG.num_classes) == []
    assert checks.ap_of_ground_truth(held_out, CFG.num_classes) == []


def test_tracer_spans_add_up_and_are_removed(step_inputs):
    det, scene, noisy = step_inputs
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.LAYERS]
    tracer = tracing.Tracer()
    tracer.keep_outputs = True
    with tracing.installed(tracer):
        with tracer.span(tracing.STEP_SPAN):
            out = training_loss(det, scene, noisy, DenoisingConfig())
            nm.backward(out.total, det.store)
        tracer.count_step_nodes(out.total)
    det.store.zero_grad()
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.LAYERS] == originals
    assert model.hungarian is hungarian

    assert tracing.nesting_errors(tracer.spans) == []
    (root,) = [s for s in tracer.spans if s.parent < 0]
    assert sum(tracing.self_times(tracer.spans).values()) == pytest.approx(
        root.end - root.start, rel=1e-9)
    per_layer = sum(tracer.nodes[name] for name in
                    ("model.encode", "model.query_build", "model.decoder",
                     "losses.detection", "vqd.denoising", "distill.loss"))
    assert 0 < per_layer <= tracer.nodes["numerics.tape"]
    assert tracer.calls["losses.detection"] == CFG.layers * CFG.groups
    assert tracer.calls["vqdet.vqd.component_loss"] == CFG.layers * CFG.groups * CFG.noisy_groups


def test_clock_scales_each_round_by_its_kernel_time(monkeypatch):
    ref = calibrate.REF_MS * 1e-3
    clock = calibrate.Clock()
    for slowdown in (1.0, 1.5):
        # A core 1.5x slower makes its round's kernel and steps 1.5x slower alike.
        monkeypatch.setattr(calibrate, "sample", lambda calls: [ref * slowdown] * calls)
        clock.start_round()
        for step in (0.1, 0.2):
            clock.reference()
            clock.add_step(step * slowdown)
        clock.end_round((0.3 + 2 * calibrate.CALLS_PER_SAMPLE * ref) * slowdown)
    assert clock.scaled_steps() == pytest.approx([0.1, 0.2, 0.1, 0.2], rel=1e-12)
    assert clock.scaled_elapsed() == pytest.approx(0.6, rel=1e-12)
    assert clock.wall_steps() == pytest.approx([0.1, 0.2, 0.15, 0.3], rel=1e-12)
    assert clock.steps == 4
    assert len(clock.rounds[-1].kernel) == 3 * calibrate.CALLS_PER_SAMPLE
