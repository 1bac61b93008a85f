"""The three workloads: what one round of each does and how it is checked.

Every workload uses the default ``DetectorConfig`` built from the run's seed
and runs whole rounds over a fixed scene list. A training round starts from
the weights left by set-up and from the same noise stream, so every round
does the same operations and reaches the same outputs bit for bit. That is
what lets one checked round, run after the timed phase, speak for every
timed round: each timed round must equal the first, and the first must
equal the checked one.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from time import perf_counter
import sys
import traceback

import numpy as np

from vqdet import model, scenes
from vqdet import numerics as nm
from vqdet.geometry import NoiseConfig
from vqdet.model import Detector, DetectorConfig, inference, training_loss
from vqdet.scenes import SceneConfig, dataset_ground_truths
from vqdet.vqd import DenoisingConfig

import checks
from calibrate import Clock
from tracing import STEP_SPAN, UPDATE_SPAN, Tracer

SGD_STEP = 1e-3
TRAIN_SCENES = 8
CROWDED_OBJECTS = 12
INFER_SCENES = 16
# Scene seeds of one run: seed * SEED_STRIDE + i for training scenes and
# seed * SEED_STRIDE + HELD_OUT_OFFSET + i for held-out ones.
SEED_STRIDE = 10_000
HELD_OUT_OFFSET = 5_000

# What a step may raise on bad numerics or shapes; anything else is a bug
# in the benchmark and ends the run.
STEP_ERRORS = (ValueError, ArithmeticError)


def no_span(name: str):
    return nullcontext()


def timed_step(clock: Clock, span, step, *args):
    """Sample the reference kernel, then run ``step(*args)`` in a step span.

    The step's wall time goes to ``clock``. Returns the step's result, or
    None when it raised one of STEP_ERRORS.
    """
    clock.reference()
    start = perf_counter()
    try:
        with span(STEP_SPAN):
            return step(*args)
    except STEP_ERRORS:
        print("step failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        clock.add_step(perf_counter() - start)


@contextmanager
def recorded_matches(records: list):
    """Keep every (cost matrix, assignment) the training loss computes."""
    solve = model.hungarian

    def recording(cost):
        assignment = solve(cost)
        records.append((np.array(cost, dtype=np.float64), assignment))
        return assignment

    model.hungarian = recording
    try:
        yield records
    finally:
        model.hungarian = solve


def stratified_counts(count: int) -> list[int]:
    """Objects per scene: 1, 2, ..., max_objects, repeated.

    The default ``SceneConfig`` draws K ~ U{1..max_objects}; stratifying the
    draw keeps that distribution but gives every seed the same total work.
    """
    top = SceneConfig().max_objects
    return [1 + i % top for i in range(count)]


def make_scenes(base_seed: int, counts: list[int], cfg: SceneConfig, split: str) -> list:
    """Scene i has ``counts[i]`` objects and seed ``base_seed + i``."""
    return [scenes.generate_scene(np.random.default_rng(base_seed + i), cfg,
                                  scene_id=f"{split}-{base_seed + i:010d}",
                                  seed=base_seed + i, num_objects=k)
            for i, k in enumerate(counts)]


class TrainWorkload:
    """One SGD training step per scene: noise draw, loss, backward, update."""

    def __init__(self, seed: int, crowded: bool):
        self.seed = seed
        self.crowded = crowded
        self.cfg = DetectorConfig()
        self.scene_cfg = SceneConfig()
        self.noise_cfg = NoiseConfig()
        self.dn_cfg = DenoisingConfig()
        self.det: Detector | None = None
        self.scenes: list = []
        self.initial: list[np.ndarray] = []

    # set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self.det = Detector(self.cfg, seed=self.seed)
        counts = ([CROWDED_OBJECTS] * TRAIN_SCENES if self.crowded
                  else stratified_counts(TRAIN_SCENES))
        self.scenes = make_scenes(self.seed * SEED_STRIDE, counts, self.scene_cfg,
                                  "crowded" if self.crowded else "train")
        self.initial = [t.data.copy() for t in self.det.store.tensors()]
        self.step(self.scenes[0], self.noise_rng())
        self.restore()

    def noise_rng(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, 1))

    def restore(self) -> None:
        for t, init in zip(self.det.store.tensors(), self.initial):
            np.copyto(t.data, init)
            t.grad = None

    # one step -------------------------------------------------------------

    def step(self, scene, rng, span=no_span):
        noisy = self.det.draw_noisy_queries(scene, self.noise_cfg, rng)
        out = training_loss(self.det, scene, noisy, self.dn_cfg)
        self.backward_update(out, span)
        return out

    def backward_update(self, out, span=no_span) -> None:
        nm.backward(out.total, self.det.store)
        with span(UPDATE_SPAN):
            for t in self.det.store.tensors():
                t.data -= SGD_STEP * t.grad
                t.grad = None

    # checks outside the timed phase ----------------------------------------

    def verify(self, first: list) -> list[str]:
        """Run one checked round; it must reach the first timed round's losses."""
        failures: list[str] = []
        losses: list[float] = []
        matches: list = []
        self.restore()
        rng = self.noise_rng()
        n, c = self.cfg.queries_per_group, self.cfg.noisy_groups
        for i, scene in enumerate(self.scenes):
            noisy = self.det.draw_noisy_queries(scene, self.noise_cfg, rng)
            if i == 0:
                grad_failures, report, unchecked = checks.gradient_check(
                    self.det, scene, noisy, self.dn_cfg,
                    np.random.default_rng((self.seed, 2)))
                failures += grad_failures
                worst = max(err for _, _, err in report) if report else float("nan")
                print(f"gradient check: {len(report)} entries, worst relative error "
                      f"{worst:.3g}; unchecked families {unchecked}", file=sys.stderr)
            with recorded_matches(matches):
                out = training_loss(self.det, scene, noisy, self.dn_cfg)
                failures += checks.replay_check(self.det, scene, noisy, self.dn_cfg,
                                                out.total, out.decisions)
            failures += checks.attention_separation(
                out.attention_maps, n, len(scene.objects), c)
            if not math.isfinite(float(out.total.data)):
                failures.append(f"{scene.scene_id}: loss is {float(out.total.data)!r}")
            self.backward_update(out)
            losses.append(float(out.total.data))
        for cost, assignment in matches:
            failures += checks.assignment_optimal(cost, assignment)
        if not matches:
            failures.append("no Hungarian match was made")
        failures += checks.finite_parameters(self.det)
        return failures + self.compare_rounds(losses, first)

    # the timed round -------------------------------------------------------

    def run_round(self, clock: Clock, tracer: Tracer | None) -> tuple[list, int]:
        span = tracer.span if tracer else no_span
        self.restore()
        rng = self.noise_rng()
        losses = []
        for scene in self.scenes:
            out = timed_step(clock, span, self.step, scene, rng, span)
            losses.append(None if out is None else float(out.total.data))
            if out is not None and tracer and tracer.keep_outputs:
                tracer.count_step_nodes(out.total)
            del out  # free this step's tape before the next step records its own
        return losses, losses.count(None)

    def compare_rounds(self, first: list, losses: list) -> list[str]:
        """Two rounds reach the same losses bit for bit."""
        if losses != first:  # a failed step's None differs too
            return [f"losses {losses} differ from {first}"]
        return []


class InferWorkload:
    """``inference`` on each held-out scene, then AP40 over the round."""

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = DetectorConfig()
        self.scene_cfg = SceneConfig()
        self.det: Detector | None = None
        self.scenes: list = []
        self.gts: dict = {}

    def setup(self) -> None:
        self.det = Detector(self.cfg, seed=self.seed)
        self.scenes = make_scenes(self.seed * SEED_STRIDE + HELD_OUT_OFFSET,
                                  stratified_counts(INFER_SCENES), self.scene_cfg, "test")
        self.gts = dataset_ground_truths(self.scenes)
        inference(self.det, self.scenes[0])

    def verify(self, first: tuple) -> list[str]:
        """Check every query row, and the first timed round against them.

        With the threshold at 0 every row is a detection, so the comparison
        of the training-mode detector with one built without the
        training-time extras covers all rows even where no score clears the
        default threshold, as is common for untrained weights.
        """
        every_row = replace(self.cfg, confidence_threshold=0.0)
        as_trained = [inference(Detector(every_row, seed=self.seed), s) for s in self.scenes]
        plain = Detector(replace(every_row, noisy_groups=0, lambda_distill=0.0),
                         seed=self.seed)
        rows = [inference(plain, s) for s in self.scenes]
        failures = checks.detections_equal(as_trained, rows)
        failures += checks.detection_properties([d for dets in rows for d in dets],
                                                0.0, self.cfg.num_classes)
        failures += checks.ap_of_ground_truth(self.scenes, self.cfg.num_classes)
        threshold = self.cfg.confidence_threshold
        kept = [[d for d in dets if d.score >= threshold] for dets in rows]
        first_dets = first[0]
        failures += checks.detections_equal(first_dets, kept)
        failures += checks.detection_properties([d for dets in first_dets for d in dets],
                                                threshold, self.cfg.num_classes)
        return failures

    def run_round(self, clock: Clock, tracer: Tracer | None) -> tuple[tuple, int]:
        span = tracer.span if tracer else no_span
        round_dets, failed = [], 0
        for scene in self.scenes:
            dets = timed_step(clock, span, inference, self.det, scene)
            if dets is None:
                failed += 1
            elif tracer and tracer.keep_outputs:
                tracer.count_step_nodes()
            round_dets.append(dets or [])
        ap = scenes.per_class_ap40([d for dets in round_dets for d in dets],
                                   self.gts, self.cfg.num_classes)
        return (round_dets, ap), failed

    def compare_rounds(self, first: tuple, outputs: tuple) -> list[str]:
        """Two rounds give bitwise equal detections and AP40."""
        failures = checks.detections_equal(outputs[0], first[0])
        if np.array(outputs[1]).tobytes() != np.array(first[1]).tobytes():
            failures.append(f"AP40 {outputs[1]} differs from {first[1]}")
        return failures


def make(name: str, seed: int):
    if name == "train":
        return TrainWorkload(seed, crowded=False)
    if name == "train-crowded":
        return TrainWorkload(seed, crowded=True)
    if name == "infer":
        return InferWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train", "train-crowded", "infer")
