"""Synthetic 3D scenes and average-precision evaluation.

A scene is a feature grid plus the ground-truth objects that generated it.
Objects splat anisotropic Gaussians into the grid: one channel per category
carries the amplitude, one channel carries inverse depth, and two carry the
yaw's sine and cosine, each modulated by the same splat, so category, center,
2D extent, depth, and orientation are all recoverable from the grid. A scene
is a function of its seed: :func:`generate_scene` rebuilds it bit for bit,
so scenes are regenerated from seeds and never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    GroundTruthObject,
    OrientedBox3D,
    backproject,
    bev_corners,
    box3d_from_ground_truth,
    box_fields,
    check_setting,
    iou3d,
    project_to_image,
    wrap_angle,
)
from .losses import TargetArrays


# class-conditional mean dimensions (l3d, w3d, h3d), in meters
CLASS_DIMENSIONS = [
    (4.0, 1.8, 1.5),   # car-like
    (6.5, 2.4, 2.8),   # van-like
    (0.9, 0.8, 1.8),   # pedestrian-like
]
# Object centers lie this near and far, in meters. The near depth must exceed a
# jittered box's reach toward the camera, or a corner can land at z <= 0 and
# project_to_image raises BehindCameraError.
DEPTH_RANGE = (6.0, 40.0)
DIM_JITTER = 0.15  # each dimension is scaled by U(1 - DIM_JITTER, 1 + DIM_JITTER)
GRID_NOISE = 0.05  # standard deviation of the Gaussian noise added to every grid entry


# The largest count of a config, and its largest grid side: at a width of 4,096
# a feed-forward weight takes 256 MiB, and a 64 x 64 grid makes an encoder
# attention map of 128 MiB a head.
MAX_COUNT, MAX_FEATURE_SIZE = 4096, 64


def grid_channels(num_classes: int) -> int:
    """Per-class amplitude, inverse depth, sin yaw and cos yaw."""
    return num_classes + 3


@dataclass(frozen=True)
class SceneConfig:
    """Scene settings; a scene holds at most one object per grid cell, F * F in all."""

    feature_size: int = 16
    num_classes: int = 3
    max_objects: int = 4

    def __post_init__(self):
        check_setting("feature_size", self.feature_size, 1, MAX_FEATURE_SIZE, integer=True)
        check_setting("num_classes", self.num_classes, 1, MAX_COUNT, integer=True)
        check_setting("max_objects", self.max_objects, 1, self.feature_size ** 2, integer=True)


@dataclass
class Scene:
    scene_id: str
    seed: int
    objects: list[GroundTruthObject]
    grid: np.ndarray  # (F, F, channels) float64

    # Built on first use and kept: a scene's objects do not change, and
    # dataclasses.replace makes a new scene that builds its own.
    @cached_property
    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """The objects' classes and other fields, :func:`geometry.box_fields`."""
        return box_fields(self.objects)

    @cached_property
    def targets(self) -> TargetArrays:
        """The objects as the arrays the loss and the matcher read."""
        return TargetArrays.from_fields(*self.fields)

    def gt_boxes3d(self) -> list[tuple[int, OrientedBox3D]]:
        return [(gt.c, box3d_from_ground_truth(gt)) for gt in self.objects]


def _splat(grid: np.ndarray, channel_values: dict[int, float], u: float, v: float,
           sigma_u: float, sigma_v: float) -> None:
    f = grid.shape[0]
    cols = np.arange(f) + 0.5
    gu = np.exp(-0.5 * ((cols - u * f) / (sigma_u * f)) ** 2)
    gv = np.exp(-0.5 * ((cols - v * f) / (sigma_v * f)) ** 2)
    patch = np.outer(gv, gu)  # rows follow v, columns follow u
    for ch, amp in channel_values.items():
        grid[:, :, ch] += amp * patch


def _sample_object(rng: np.random.Generator, cfg: SceneConfig) -> GroundTruthObject:
    cls = int(rng.integers(cfg.num_classes))
    means = CLASS_DIMENSIONS[cls % len(CLASS_DIMENSIONS)]
    dims = [m * (1.0 + rng.uniform(-DIM_JITTER, DIM_JITTER)) for m in means]
    depth = rng.uniform(*DEPTH_RANGE)
    u_c = rng.uniform(0.15, 0.85)
    v_c = rng.uniform(0.15, 0.85)
    yaw = wrap_angle(rng.uniform(-math.pi, math.pi))
    x, y, _ = backproject(u_c, v_c, depth)
    box = OrientedBox3D(x, y, depth, dims[0], dims[1], dims[2], yaw)

    # the box's eight corners: its footprint at y - h3d/2 and y + h3d/2
    hh = box.h3d / 2
    us, vs = zip(*(project_to_image((x, y, z)) for x, z in bev_corners(box)
                   for y in (box.y - hh, box.y + hh)))
    gt = GroundTruthObject(
        c=cls, x_c=u_c, y_c=v_c,
        l=u_c - max(min(us), -0.2), r=min(max(us), 1.2) - u_c,
        t=v_c - max(min(vs), -0.2), b=min(max(vs), 1.2) - v_c,
        l3d=dims[0], w3d=dims[1], h3d=dims[2], theta=yaw, d=depth)
    gt.validate(cfg.num_classes)
    return gt


def generate_scene(rng: np.random.Generator, cfg: SceneConfig, scene_id: str,
                   seed: int, num_objects: int | None = None) -> Scene:
    """Sample one scene; ``num_objects``, a count from 0 to F * F, overrides the
    K ~ U{1..max} draw and is checked before any draw."""
    if num_objects is None:
        num_objects = int(rng.integers(1, cfg.max_objects + 1))
    check_setting("num_objects", num_objects, 0, cfg.feature_size ** 2, integer=True)
    objects = [_sample_object(rng, cfg) for _ in range(num_objects)]
    f = cfg.feature_size
    grid = np.zeros((f, f, grid_channels(cfg.num_classes)))
    nc = cfg.num_classes
    for gt in objects:
        sigma_u = float(min(max((gt.l + gt.r) / 2 * 0.6, 0.03), 0.25))
        sigma_v = float(min(max((gt.t + gt.b) / 2 * 0.6, 0.03), 0.25))
        _splat(grid, {
            gt.c: 1.0,
            nc: 10.0 / gt.d,
            nc + 1: math.sin(gt.theta),
            nc + 2: math.cos(gt.theta),
        }, gt.x_c, gt.y_c, sigma_u, sigma_v)
    grid += rng.normal(0.0, GRID_NOISE, size=grid.shape)
    return Scene(scene_id=scene_id, seed=seed, objects=objects, grid=grid)


@dataclass
class Detection:
    scene_id: str
    category: int
    score: float
    box3d: OrientedBox3D
    corners2d: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)


def ap40(detections: list[Detection],
         ground_truths: dict[str, list[tuple[int, OrientedBox3D]]],
         iou_threshold: float = 0.5) -> float:
    """Average precision at 40 recall positions with greedy 3D IoU matching.

    Detections are ranked by score, ties broken by scene id and then by
    input order. The result therefore does not depend on the order of
    detections across scenes, but the input order of equal-score detections
    within one scene can change it. Each ground truth can be claimed once, by
    the highest-ranked same-class detection whose IoU3D clears the threshold.
    Returns NaN when there are no ground truths. A NaN score has no rank, so
    it raises ValueError naming the scene of the first one.
    """
    nan_scene = next((d.scene_id for d in detections if math.isnan(d.score)), None)
    if nan_scene is not None:
        raise ValueError(f"ap40: a detection of scene {nan_scene!r} has a NaN score")
    total_gts = sum(len(v) for v in ground_truths.values())
    if total_gts == 0:
        return float("nan")
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].score, detections[i].scene_id, i))
    claimed: dict[str, set[int]] = {sid: set() for sid in ground_truths}
    tp = np.zeros(len(order))
    for rank, di in enumerate(order):
        det = detections[di]
        best_iou, best_j = 0.0, -1
        for j, (cls, box) in enumerate(ground_truths.get(det.scene_id, [])):
            if cls != det.category or j in claimed.get(det.scene_id, set()):
                continue
            value = iou3d(det.box3d, box)
            if value >= iou_threshold and value > best_iou:
                best_iou, best_j = value, j
        if best_j >= 0:
            claimed[det.scene_id].add(best_j)
            tp[rank] = 1.0
    cum_tp = np.cumsum(tp)
    recalls = cum_tp / total_gts
    precisions = cum_tp / np.arange(1, len(order) + 1)
    ap = 0.0
    for i in range(1, 41):
        r = i / 40.0
        mask = recalls >= r - 1e-12
        ap += float(precisions[mask].max()) if mask.any() else 0.0
    return ap / 40.0


def per_class_ap40(detections: list[Detection],
                   ground_truths: dict[str, list[tuple[int, OrientedBox3D]]],
                   num_classes: int, iou_threshold: float = 0.5) -> list[float]:
    """AP restricted to each class; NaN where a class has no ground truths."""
    out = []
    for cls in range(num_classes):
        dets = [d for d in detections if d.category == cls]
        gts = {sid: [(c, b) for c, b in lst if c == cls]
               for sid, lst in ground_truths.items()}
        out.append(ap40(dets, gts, iou_threshold))
    return out


def dataset_ground_truths(scenes: list[Scene]) -> dict[str, list[tuple[int, OrientedBox3D]]]:
    return {scene.scene_id: scene.gt_boxes3d() for scene in scenes}
