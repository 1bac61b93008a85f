"""Synthetic 3D scenes, dataset files, and average-precision evaluation.

A scene is a feature grid plus the ground-truth objects that generated it.
Objects splat anisotropic Gaussians into the grid: one channel per category
carries the amplitude, one channel carries inverse depth, and two carry the
yaw's sine and cosine, each modulated by the same splat, so category, center,
2D extent, depth, and orientation are all recoverable from the grid. Datasets
are line-delimited JSON with the raw float64 grid base64-encoded, which makes
save/load round trips bit-exact.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    BehindCameraError,
    CameraIntrinsics,
    GroundTruthObject,
    OrientedBox3D,
    box3d_corners,
    box3d_from_ground_truth,
    iou3d,
    project_to_image,
    wrap_angle,
)


class DatasetError(ValueError):
    """A dataset file line could not be parsed."""


# class-conditional mean dimensions (l3d, w3d, h3d), in meters
CLASS_DIMENSIONS = [
    (4.0, 1.8, 1.5),   # car-like
    (6.5, 2.4, 2.8),   # van-like
    (0.9, 0.8, 1.8),   # pedestrian-like
]
MAX_DEPTH = 120.0  # meters; ground truths must lie nearer (GroundTruthObject.validate)


@dataclass(frozen=True)
class SceneConfig:
    feature_size: int = 16
    num_classes: int = 3
    max_objects: int = 4
    depth_range: tuple[float, float] = (6.0, 40.0)
    dim_jitter: float = 0.15
    grid_noise: float = 0.05
    intrinsics: CameraIntrinsics = CameraIntrinsics()

    def __post_init__(self):
        for name in ("feature_size", "num_classes", "max_objects"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.grid_noise >= 0:
            raise ValueError(f"grid_noise must be >= 0, got {self.grid_noise}")
        if not 0 <= self.dim_jitter < 1:
            raise ValueError(f"dim_jitter must lie in [0, 1), got {self.dim_jitter}")
        lo, hi = self.depth_range
        if not lo < hi < MAX_DEPTH:
            raise ValueError(f"depth_range {self.depth_range} must satisfy "
                             f"near < far < {MAX_DEPTH}")
        # A box turned by its yaw reaches half its footprint diagonal toward the camera.
        reach = (1.0 + self.dim_jitter) * max(
            math.hypot(*CLASS_DIMENSIONS[c % len(CLASS_DIMENSIONS)][:2]) / 2.0
            for c in range(self.num_classes))
        if lo <= reach:
            raise ValueError(f"depth_range near depth {lo} must exceed {reach:.3f}: a jittered "
                             "box that near can put a corner at z <= 0")

    @property
    def input_channels(self) -> int:
        # per-class amplitude + inverse depth + sin yaw + cos yaw
        return self.num_classes + 3


@dataclass
class Scene:
    scene_id: str
    seed: int
    intrinsics: CameraIntrinsics
    objects: list[GroundTruthObject]
    grid: np.ndarray  # (F, F, channels) float64

    def gt_boxes3d(self) -> list[tuple[int, OrientedBox3D]]:
        return [(gt.c, box3d_from_ground_truth(gt, self.intrinsics))
                for gt in self.objects]


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
    dims = [m * (1.0 + rng.uniform(-cfg.dim_jitter, cfg.dim_jitter)) for m in means]
    depth = rng.uniform(*cfg.depth_range)
    u_c = rng.uniform(0.15, 0.85)
    v_c = rng.uniform(0.15, 0.85)
    yaw = wrap_angle(rng.uniform(-math.pi, math.pi))
    intr = cfg.intrinsics
    x = (u_c - intr.cx) * depth / intr.f
    y = (v_c - intr.cy) * depth / intr.f
    box = OrientedBox3D(x, y, depth, dims[0], dims[1], dims[2], yaw)

    us, vs = [], []
    for corner in box3d_corners(box):
        try:
            cu, cv = project_to_image(corner, intr)
        except BehindCameraError:
            continue
        us.append(cu)
        vs.append(cv)
    u_min = max(min(us), u_c - 1.2)
    u_max = min(max(us), u_c + 1.2)
    v_min = max(min(vs), v_c - 1.2)
    v_max = min(max(vs), v_c + 1.2)
    gt = GroundTruthObject(
        c=cls, x_c=u_c, y_c=v_c,
        l=u_c - max(u_min, -0.2), r=min(u_max, 1.2) - u_c,
        t=v_c - max(v_min, -0.2), b=min(v_max, 1.2) - v_c,
        l3d=dims[0], w3d=dims[1], h3d=dims[2], theta=yaw, d=depth)
    gt.validate(cfg.num_classes)
    return gt


def generate_scene(rng: np.random.Generator, cfg: SceneConfig, scene_id: str,
                   seed: int, num_objects: int | None = None) -> Scene:
    """Sample one scene; ``num_objects`` overrides the K ~ U{1..max} draw."""
    k = int(rng.integers(1, cfg.max_objects + 1)) if num_objects is None else num_objects
    objects = [_sample_object(rng, cfg) for _ in range(k)]
    f = cfg.feature_size
    grid = np.zeros((f, f, cfg.input_channels))
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
    grid += rng.normal(0.0, cfg.grid_noise, size=grid.shape)
    return Scene(scene_id=scene_id, seed=seed, intrinsics=cfg.intrinsics,
                 objects=objects, grid=grid)


def generate_dataset(base_seed: int, count: int, cfg: SceneConfig,
                     split: str = "train") -> list[Scene]:
    """Scenes with per-scene seeds ``base_seed + i``; ids encode split + seed."""
    scenes = []
    for i in range(count):
        seed = base_seed + i
        rng = np.random.default_rng(seed)
        scenes.append(generate_scene(rng, cfg, scene_id=f"{split}-{seed:010d}", seed=seed))
    return scenes


def save_dataset(scenes: list[Scene], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            record = {
                "scene_id": scene.scene_id,
                "seed": scene.seed,
                "intrinsics": {"f": scene.intrinsics.f, "cx": scene.intrinsics.cx,
                               "cy": scene.intrinsics.cy},
                "objects": [gt.as_row() for gt in scene.objects],
                "grid_shape": list(scene.grid.shape),
                "grid_b64": base64.b64encode(
                    np.ascontiguousarray(scene.grid, dtype="<f8").tobytes()).decode("ascii"),
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_dataset(path) -> list[Scene]:
    """Read scenes back; each object must pass ``GroundTruthObject.validate``.

    The intrinsics are checked by :class:`CameraIntrinsics`, and the grid
    must be (F, F, classes + 3) with finite entries; the class count is the
    grid's channel count minus 3. A malformed line raises
    :class:`DatasetError` naming the path and the line.
    """
    scenes = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                intr = CameraIntrinsics(**rec["intrinsics"])
                objects = [GroundTruthObject.from_row(row) for row in rec["objects"]]
                shape = tuple(rec["grid_shape"])
                if len(shape) != 3 or shape[0] != shape[1] or shape[2] < 4:
                    raise ValueError(f"grid_shape {list(shape)} is not (F, F, classes + 3)")
                grid = np.frombuffer(base64.b64decode(rec["grid_b64"]),
                                     dtype="<f8").reshape(shape).astype(np.float64)
                if not np.isfinite(grid).all():
                    raise ValueError("grid has non-finite entries")
                for obj in objects:
                    obj.validate(num_classes=shape[-1] - 3)
                scenes.append(Scene(scene_id=rec["scene_id"], seed=int(rec["seed"]),
                                    intrinsics=intr, objects=objects, grid=grid))
            except (KeyError, IndexError, ValueError, TypeError) as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
    return scenes


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

    Detections are ranked by score (ties broken by scene id then insertion
    order, so the result is independent of input order); each ground truth
    can be claimed once, by the highest-scoring same-class detection whose
    IoU3D clears the threshold. Returns NaN when there are no ground truths.
    """
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
