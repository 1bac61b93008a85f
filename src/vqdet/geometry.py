"""Box representations, pinhole projection, oriented IoU, and box noising.

Ground-truth objects carry a twelve-field tuple: category, projected center,
distances to the four 2D box edges, metric 3D dimensions, yaw, and central
depth. Image coordinates are normalized to [0, 1] on both axes. The camera
frame is x right, y down, z forward; yaw rotates a box about the vertical
(y) axis, turning its length axis from +x toward +z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi


class BehindCameraError(ValueError):
    """Projection was asked for a point at or behind the camera plane."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]; values already in range pass through."""
    if -math.pi < theta <= math.pi:
        return theta
    t = math.fmod(theta + math.pi, TWO_PI)
    if t <= 0.0:
        t += TWO_PI
    return t - math.pi


@dataclass(frozen=True)
class CameraIntrinsics:
    f: float = 1.2
    cx: float = 0.5
    cy: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.f) and self.f > 0):
            raise ValueError(f"intrinsics f must be finite and positive, got {self.f}")
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise ValueError(f"intrinsics cx, cy must be finite, got {self.cx}, {self.cy}")


@dataclass(frozen=True)
class AnchorBox6D:
    """2D reference box: center plus distances to left/right/top/bottom edges."""

    x_c: float
    y_c: float
    l: float
    r: float
    t: float
    b: float


@dataclass(frozen=True)
class GroundTruthObject:
    c: int
    x_c: float
    y_c: float
    l: float
    r: float
    t: float
    b: float
    l3d: float
    w3d: float
    h3d: float
    theta: float
    d: float

    def anchor(self) -> AnchorBox6D:
        return AnchorBox6D(self.x_c, self.y_c, self.l, self.r, self.t, self.b)

    def validate(self, num_classes: int | None = None) -> None:
        if num_classes is not None and not 0 <= self.c < num_classes:
            raise ValueError(f"category {self.c} out of range")
        if min(self.l, self.r, self.t, self.b) < 0:
            raise ValueError("edge distances must be nonnegative")
        if not (self.x_c - self.l >= -0.25 and self.x_c + self.r <= 1.25
                and self.y_c - self.t >= -0.25 and self.y_c + self.b <= 1.25):
            raise ValueError("2D box leaves the allowed frame margin")
        if not (0 < self.l3d < 30 and 0 < self.w3d < 30 and 0 < self.h3d < 30):
            raise ValueError("3D dimensions out of range")
        if not 0.5 < self.d < 120:
            raise ValueError("depth out of range")
        if not math.isfinite(self.theta):
            raise ValueError(f"yaw {self.theta} is not finite")

    def as_row(self) -> list[float]:
        return [float(self.c), self.x_c, self.y_c, self.l, self.r, self.t, self.b,
                self.l3d, self.w3d, self.h3d, self.theta, self.d]

    @staticmethod
    def from_row(row) -> "GroundTruthObject":
        return GroundTruthObject(int(row[0]), *[float(v) for v in row[1:12]])


@dataclass(frozen=True)
class OrientedBox3D:
    """Yaw-oriented box in the camera frame; center is the 3D centroid."""

    x: float
    y: float
    z: float
    l3d: float
    w3d: float
    h3d: float
    yaw: float

    def volume(self) -> float:
        return self.l3d * self.w3d * self.h3d


@dataclass(frozen=True)
class NoiseConfig:
    """Corruption strengths for turning a ground truth into a noisy anchor.

    Defaults follow the published 2D denoising recipe (center shift and box
    scale 0.4, label flip 0.25) extended with mild 3D attribute jitter.
    """

    center_shift_scale: float = 0.4
    box_scale_range: float = 0.4
    label_flip_prob: float = 0.25
    dim_scale_range: float = 0.2
    angle_jitter_rad: float = math.pi / 8
    depth_jitter_frac: float = 0.1

    def __post_init__(self):
        for name in ("center_shift_scale", "box_scale_range"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0 <= self.label_flip_prob <= 1:
            raise ValueError(f"label_flip_prob must lie in [0, 1], got {self.label_flip_prob}")


def project_to_image(point, intr: CameraIntrinsics) -> tuple[float, float]:
    """Pinhole projection of a camera-frame point; z must be positive."""
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    if z <= 0.0:
        raise BehindCameraError(f"point has non-positive depth z={z}")
    return intr.f * x / z + intr.cx, intr.f * y / z + intr.cy


def backproject(u: float, v: float, depth: float, intr: CameraIntrinsics):
    """Invert projection at a known depth; returns a camera-frame point."""
    return np.array([(u - intr.cx) * depth / intr.f,
                     (v - intr.cy) * depth / intr.f,
                     depth])


def box2d_corners(anchor: AnchorBox6D) -> tuple[float, float, float, float]:
    return (anchor.x_c - anchor.l, anchor.y_c - anchor.t,
            anchor.x_c + anchor.r, anchor.y_c + anchor.b)


def bev_corners(box: OrientedBox3D) -> np.ndarray:
    """Bird's-eye-view footprint corners, counter-clockwise, in (x, z)."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.l3d / 2.0, box.w3d / 2.0
    local = [(hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)]
    return np.array([(box.x + dx * c - dz * s, box.z + dx * s + dz * c)
                     for dx, dz in local])


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clip_polygon(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against a convex CCW clipper."""
    output = list(subject)
    for i in range(len(clipper)):
        if not output:
            break
        p1 = clipper[i]
        p2 = clipper[(i + 1) % len(clipper)]
        edge = p2 - p1
        input_list, output = output, []
        prev = input_list[-1]
        prev_in = edge[0] * (prev[1] - p1[1]) - edge[1] * (prev[0] - p1[0]) >= 0.0
        for cur in input_list:
            cur_in = edge[0] * (cur[1] - p1[1]) - edge[1] * (cur[0] - p1[0]) >= 0.0
            if cur_in != prev_in:
                # segment crosses the clip line; add the intersection point
                dr = cur - prev
                denom = edge[0] * dr[1] - edge[1] * dr[0]
                t = (edge[0] * (p1[1] - prev[1]) - edge[1] * (p1[0] - prev[0])) / denom
                output.append(prev + t * dr)
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    return np.array(output) if output else np.zeros((0, 2))


def iou3d(a: OrientedBox3D, b: OrientedBox3D) -> float:
    """Exact volume IoU of two yaw-oriented boxes.

    The footprint intersection is the Sutherland-Hodgman clip of one rotated
    rectangle against the other; multiplied by the vertical overlap it gives
    the intersection volume. Degenerate boxes yield 0.
    """
    va, vb = a.volume(), b.volume()
    if va <= 0.0 or vb <= 0.0:
        return 0.0
    if a == b:
        return 1.0
    y_overlap = min(a.y + a.h3d / 2, b.y + b.h3d / 2) - max(a.y - a.h3d / 2, b.y - b.h3d / 2)
    if y_overlap <= 0.0:
        return 0.0
    inter_area = _polygon_area(_clip_polygon(bev_corners(a), bev_corners(b)))
    inter = inter_area * y_overlap
    union = va + vb - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def apply_box_noise(gt: GroundTruthObject, cfg: NoiseConfig, rng: np.random.Generator,
                    num_classes: int) -> tuple[AnchorBox6D, tuple[int, float, float, float, float, float]]:
    """Corrupt one ground truth into a noisy anchor plus noisy 3D attributes.

    The whole 2D box is shifted by up to ±center_shift_scale of its half
    extent per axis, each edge distance is scaled independently, the label is
    resampled over the other classes with label_flip_prob, and dimensions,
    yaw, and depth receive their configured jitter. Outputs are re-clamped to
    the ground-truth invariants. Draw order is fixed, so a seeded generator
    reproduces the output bit-for-bit.
    """
    half_x = (gt.l + gt.r) / 2.0
    half_y = (gt.t + gt.b) / 2.0
    dx = rng.uniform(-1.0, 1.0) * cfg.center_shift_scale * half_x
    dy = rng.uniform(-1.0, 1.0) * cfg.center_shift_scale * half_y
    scales = 1.0 + rng.uniform(-1.0, 1.0, size=4) * cfg.box_scale_range
    l, r = gt.l * scales[0], gt.r * scales[1]
    t, b = gt.t * scales[2], gt.b * scales[3]
    x_c = gt.x_c + dx
    y_c = gt.y_c + dy
    # keep the noisy box inside the frame margin the invariants allow
    x_c = min(max(x_c, -0.25 + l), 1.25 - r) if l + r <= 1.5 else gt.x_c
    y_c = min(max(y_c, -0.25 + t), 1.25 - b) if t + b <= 1.5 else gt.y_c

    c = gt.c
    if rng.random() < cfg.label_flip_prob and num_classes > 1:
        c = (gt.c + 1 + int(rng.integers(num_classes - 1))) % num_classes

    dim_scales = 1.0 + rng.uniform(-1.0, 1.0, size=3) * cfg.dim_scale_range
    # scalar min/max, not np.clip: the ufunc call costs ~10x more on a scalar
    l3d = float(min(max(gt.l3d * dim_scales[0], 0.05), 29.9))
    w3d = float(min(max(gt.w3d * dim_scales[1], 0.05), 29.9))
    h3d = float(min(max(gt.h3d * dim_scales[2], 0.05), 29.9))
    theta = wrap_angle(gt.theta + rng.uniform(-1.0, 1.0) * cfg.angle_jitter_rad)
    d = float(min(max(gt.d * (1.0 + rng.uniform(-1.0, 1.0) * cfg.depth_jitter_frac),
                      0.51), 119.0))
    return AnchorBox6D(x_c, y_c, l, r, t, b), (c, l3d, w3d, h3d, theta, d)


def box3d_from_ground_truth(gt: GroundTruthObject, intr: CameraIntrinsics) -> OrientedBox3D:
    """Lift a ground truth to a camera-frame oriented box via its depth."""
    center = backproject(gt.x_c, gt.y_c, gt.d, intr)
    return OrientedBox3D(center[0], center[1], center[2], gt.l3d, gt.w3d, gt.h3d, gt.theta)


def box3d_corners(box: OrientedBox3D) -> np.ndarray:
    """All eight corners of the oriented box, shape (8, 3)."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw, hh = box.l3d / 2, box.w3d / 2, box.h3d / 2
    corners = []
    for dx in (-hl, hl):
        for dy in (-hh, hh):
            for dz in (-hw, hw):
                corners.append((box.x + dx * c - dz * s, box.y + dy, box.z + dx * s + dz * c))
    return np.array(corners)
