"""Correctness checks on the benchmark's outputs.

Each check compares against a separate computation (central differences,
``scipy.optimize.linear_sum_assignment``, a detector built in another
training mode) or a property of the method (the attention mask, AP of a
perfect detector), never against stored output. Each returns a list of
failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from vqdet import gradcheck
from vqdet import numerics as nm
from vqdet.matching import Assignment
from vqdet.model import Detector, NoisyDraw, training_loss
from vqdet.scenes import Detection, Scene, dataset_ground_truths, per_class_ap40
from vqdet.vqd import DenoisingConfig

# Entries with a smaller analytic gradient are not sampled: the central
# difference of a loss of size ~300 carries ~3e-8 of rounding error, which
# must stay far below END_TO_END_TOLERANCE of the entry's gradient.
MIN_SAMPLED_GRAD = 1e-2
MAX_DRAWS_PER_FAMILY = 5
HUNGARIAN_TOLERANCE = 1e-9


def gradient_check(det: Detector, scene: Scene, noisy: NoisyDraw,
                   dn_cfg: DenoisingConfig, rng: np.random.Generator
                   ) -> tuple[list[str], list[tuple[str, int, float]], list[str]]:
    """Analytic gradient against central differences on sampled entries.

    One entry is sampled from each parameter family (the name up to its first
    dot: encoder, each decoder layer, heads, queries, VQD generator, refiner,
    ...), among entries whose gradient is at least ``MIN_SAMPLED_GRAD``. The
    step's discrete decisions are pinned with ``replay``, so the probed loss
    is the function the tape differentiates. Returns the failures, the
    (parameter, flat index, relative error) of every checked entry, and the
    families left unchecked.

    A central difference is a valid reference only where the loss is smooth
    over the probe interval. Where a ReLU, abs, min or max switches inside
    it, the one-sided differences disagree by more than the tolerance; such
    an entry is replaced by another one of the same family. A single ReLU
    input within 1e-7 of zero can put every entry of a family within reach
    of its kink; that family is left unchecked, and the check fails when
    more than half of the families are.
    """
    first = training_loss(det, scene, noisy, dn_cfg)
    det.store.zero_grad()
    nm.backward(first.total, det.store)
    at_zero = float(first.total.data)  # the replayed loss, bit for bit

    families: dict[str, list[tuple[str, np.ndarray]]] = {}
    for name, t in det.store.items():
        eligible = np.flatnonzero(np.abs(t.grad) >= MIN_SAMPLED_GRAD)
        if eligible.size:
            families.setdefault(name.split(".")[0], []).append((name, eligible))

    def loss() -> float:
        return float(training_loss(det, scene, noisy, dn_cfg,
                                   replay=first.decisions).total.data)

    def probe(name: str, i: int) -> tuple[float, float]:
        flat = det.store[name].data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + gradcheck.STEP
        plus = loss()
        flat[i] = orig - gradcheck.STEP
        minus = loss()
        flat[i] = orig
        return plus, minus

    failures, report, unchecked = [], [], []
    for family in sorted(families):
        for _ in range(MAX_DRAWS_PER_FAMILY):
            name, eligible = families[family][rng.integers(len(families[family]))]
            i = int(eligible[rng.integers(eligible.size)])
            plus, minus = probe(name, i)
            forward = (plus - at_zero) / gradcheck.STEP
            backward = (at_zero - minus) / gradcheck.STEP
            numeric = (plus - minus) / (2.0 * gradcheck.STEP)
            if abs(forward - backward) <= gradcheck.END_TO_END_TOLERANCE * max(abs(numeric), 1e-3):
                break
        else:
            unchecked.append(family)
            continue
        analytic = float(det.store[name].grad.reshape(-1)[i])
        err = gradcheck.relative_error(np.array([analytic]), np.array([numeric]))
        report.append((name, i, err))
        if not err <= gradcheck.END_TO_END_TOLERANCE:
            failures.append(f"gradient of {name}[{i}]: analytic {analytic!r}, "
                            f"central difference {numeric!r}, relative error {err:.3g}")
    det.store.zero_grad()
    if not report or 2 * len(unchecked) > len(families):
        failures.append(f"gradient checked on {len(report)} parameter families; "
                        f"the loss has a kink near every sampled entry of {unchecked}")
    return failures, report, unchecked


def replay_check(det: Detector, scene: Scene, noisy: NoisyDraw,
                 dn_cfg: DenoisingConfig, total: nm.Tensor, decisions) -> list[str]:
    """``training_loss(..., replay=decisions)`` reproduces the loss bit for bit."""
    again = training_loss(det, scene, noisy, dn_cfg, replay=decisions).total
    if again.data.tobytes() != total.data.tobytes():
        return [f"{scene.scene_id}: replayed loss {float(again.data)!r} "
                f"differs from {float(total.data)!r}"]
    return []


def attention_separation(maps: list[np.ndarray], n: int, k: int, c: int) -> list[str]:
    """Learnable rows put no mass on noisy columns; noisy blocks see no other block."""
    failures = []
    for g, attn in enumerate(maps):
        leak = attn[:n, n:]
        if np.any(leak != 0.0):
            failures.append(f"group {g}: learnable rows put mass {float(leak.sum())!r} "
                            "on noisy columns")
        for j in range(c):
            lo = n + j * k
            others = np.ones(attn.shape[1], dtype=bool)
            others[:n] = False
            others[lo:lo + k] = False
            cross = attn[lo:lo + k][:, others]
            if np.any(cross != 0.0):
                failures.append(f"group {g}: noisy block {j} puts mass "
                                f"{float(cross.sum())!r} on other noisy blocks")
    return failures


def assignment_optimal(cost: np.ndarray, assignment: Assignment) -> list[str]:
    """The assignment is a full matching whose cost is the optimum."""
    pairs = assignment.pairs
    queries = [q for q, _ in pairs]
    gts = [g for _, g in pairs]
    if (len(pairs) != min(cost.shape) or len(set(queries)) != len(queries)
            or len(set(gts)) != len(gts)):
        return [f"{cost.shape} cost matrix: {len(pairs)} pairs do not form "
                "a full one-to-one matching"]
    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum())
    got = float(sum(cost[q, g] for q, g in pairs))
    if not abs(got - best) <= HUNGARIAN_TOLERANCE:
        return [f"{cost.shape} cost matrix: assignment costs {got!r}, "
                f"optimum is {best!r}"]
    return []


def finite_parameters(det: Detector) -> list[str]:
    bad = [name for name, t in det.store.items() if not np.isfinite(t.data).all()]
    return [f"non-finite parameters: {bad[:5]}"] if bad else []


def _detection_bits(d: Detection) -> tuple:
    b = d.box3d
    values = [d.score, b.x, b.y, b.z, b.l3d, b.w3d, b.h3d, b.yaw, *d.corners2d]
    return d.scene_id, d.category, np.array(values, dtype=np.float64).tobytes()


def detections_equal(got: list[list[Detection]], want: list[list[Detection]]) -> list[str]:
    """Per-scene detection lists are bitwise equal, in order."""
    failures = []
    if len(got) != len(want):
        return [f"{len(got)} scenes of detections, expected {len(want)}"]
    for a, b in zip(got, want):
        if [_detection_bits(d) for d in a] != [_detection_bits(d) for d in b]:
            sid = a[0].scene_id if a else (b[0].scene_id if b else "?")
            failures.append(f"{sid}: {len(a)} detections differ from the "
                            f"{len(b)} of the reference detector")
    return failures


def detection_properties(dets: list[Detection], threshold: float,
                         num_classes: int) -> list[str]:
    """Scores clear the threshold, categories are in range, sizes and depth positive."""
    failures = []
    for d in dets:
        b = d.box3d
        if not (d.score >= threshold and 0 <= d.category < num_classes
                and min(b.l3d, b.w3d, b.h3d) > 0 and b.z > 0):
            failures.append(f"{d.scene_id}: invalid detection {d}")
    return failures


def ap_of_ground_truth(scene_list: list[Scene], num_classes: int) -> list[str]:
    """Ground truths fed back as detections score AP40 = 1 for every class present."""
    gts = dataset_ground_truths(scene_list)
    dets = [Detection(scene_id=sid, category=c, score=1.0, box3d=box)
            for sid, objs in gts.items() for c, box in objs]
    present = {c for objs in gts.values() for c, _ in objs}
    failures = []
    for cls, ap in enumerate(per_class_ap40(dets, gts, num_classes)):
        if not (ap == 1.0 if cls in present else math.isnan(ap)):
            failures.append(f"class {cls}: AP40 of the ground truth is {ap!r}")
    return failures
