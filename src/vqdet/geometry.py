"""Box representations, pinhole projection, oriented IoU, and box noising.

Ground-truth objects carry a twelve-field tuple: category, projected center,
distances to the four 2D box edges, metric 3D dimensions, yaw, and central
depth. A noisy box is one too: :func:`apply_box_noise` corrupts a ground
truth into another :class:`GroundTruthObject`. Image coordinates are
normalized to [0, 1] on both axes. The camera frame is x right, y down, z
forward; yaw rotates a box about the vertical (y) axis, turning its length
axis from +x toward +z. :func:`backproject` lifts a point or whole columns
of image coordinates and depths with the same formula. :func:`bev_corners`
gives an oriented box's one set of corners, its footprint: :func:`iou3d`
clips it, and the scene sampler projects it at the box's bottom and top.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

TWO_PI = 2.0 * math.pi
FOCAL, CX, CY = 1.2, 0.5, 0.5  # the pinhole camera, in normalized image units
MAX_DEPTH = 120.0  # meters; a ground truth lies nearer than this


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

    def validate(self, num_classes: int) -> None:
        if not 0 <= self.c < num_classes:
            raise ValueError(f"category {self.c} out of range")
        if min(self.l, self.r, self.t, self.b) <= 0:
            raise ValueError("edge distances must be positive")
        if not (self.x_c - self.l >= -0.25 and self.x_c + self.r <= 1.25
                and self.y_c - self.t >= -0.25 and self.y_c + self.b <= 1.25):
            raise ValueError("2D box leaves the allowed frame margin")
        if not (0 < self.l3d < 30 and 0 < self.w3d < 30 and 0 < self.h3d < 30):
            raise ValueError("3D dimensions out of range")
        if not 0.5 < self.d < MAX_DEPTH:
            raise ValueError("depth out of range")
        if not math.isfinite(self.theta):
            raise ValueError(f"yaw {self.theta} is not finite")


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
    """Corruption strengths for turning a ground truth into a noisy box.

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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
        for name in ("center_shift_scale", "box_scale_range", "dim_scale_range",
                     "depth_jitter_frac"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0 <= self.label_flip_prob <= 1:
            raise ValueError(f"label_flip_prob must lie in [0, 1], got {self.label_flip_prob}")
        if not 0 <= self.angle_jitter_rad <= math.pi:
            raise ValueError(f"angle_jitter_rad must lie in [0, pi], got {self.angle_jitter_rad}")


def project_to_image(point) -> tuple[float, float]:
    """Pinhole projection of a camera-frame point; z must be positive."""
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    if z <= 0.0:
        raise BehindCameraError(f"point has non-positive depth z={z}")
    return FOCAL * x / z + CX, FOCAL * y / z + CY


def backproject(u, v, depth):
    """Invert projection at a known depth: the camera-frame ``(x, y, z)``.

    One formula serves a point of floats and columns of equal-shape arrays.
    """
    return (u - CX) * depth / FOCAL, (v - CY) * depth / FOCAL, depth


def bev_corners(box: OrientedBox3D) -> list[tuple[float, float]]:
    """Bird's-eye-view footprint corners, counter-clockwise, as (x, z) pairs."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.l3d / 2.0, box.w3d / 2.0
    local = [(hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)]
    return [(box.x + dx * c - dz * s, box.z + dx * s + dz * c) for dx, dz in local]


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clip_polygon(subject: list[tuple[float, float]],
                  clipper: list[tuple[float, float]]) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against a convex CCW clipper.

    Corners are float pairs: float64 2-vectors give the same IEEE results at
    numpy's per-call cost for every scalar operation.
    """
    output = subject
    for i in range(len(clipper)):
        if not output:
            break
        x1, y1 = clipper[i]
        x2, y2 = clipper[(i + 1) % len(clipper)]
        ex, ey = x2 - x1, y2 - y1
        input_list, output = output, []
        px, py = input_list[-1]
        prev_in = ex * (py - y1) - ey * (px - x1) >= 0.0
        for cx, cy in input_list:
            cur_in = ex * (cy - y1) - ey * (cx - x1) >= 0.0
            if cur_in != prev_in:
                # segment crosses the clip line; add the intersection point
                dx, dy = cx - px, cy - py
                denom = ex * dy - ey * dx
                num = ex * (y1 - py) - ey * (x1 - px)
                # rounding can put a segment parallel to the line on both sides of
                # it; it lies on the line, so keep all of it: end at cur, start at prev
                t = num / denom if denom else float(prev_in)
                output.append((px + t * dx, py + t * dy))
            if cur_in:
                output.append((cx, cy))
            px, py, prev_in = cx, cy, cur_in
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
                    num_classes: int) -> GroundTruthObject:
    """Corrupt one ground truth into a noisy box of the same form.

    The whole 2D box is shifted by up to ±center_shift_scale of its half
    extent per axis, each edge distance is scaled independently, the label is
    resampled over the other classes with label_flip_prob, and dimensions,
    yaw, and depth receive their configured jitter. Outputs are re-clamped to
    the ground-truth invariants. The draws are grouped into three generator
    calls, four on a label flip: six uniforms (center shift x, y and the four
    edge scales), one flip test, the new label on a flip, then five uniforms
    (three dimension scales, yaw, depth). The order is fixed, so a seeded
    generator reproduces the output bit-for-bit.
    """
    u_x, u_y, s_l, s_r, s_t, s_b = rng.uniform(-1.0, 1.0, size=6).tolist()
    half_x = (gt.l + gt.r) / 2.0
    half_y = (gt.t + gt.b) / 2.0
    dx = u_x * cfg.center_shift_scale * half_x
    dy = u_y * cfg.center_shift_scale * half_y
    box_range = cfg.box_scale_range
    l, r = gt.l * (1.0 + s_l * box_range), gt.r * (1.0 + s_r * box_range)
    t, b = gt.t * (1.0 + s_t * box_range), gt.b * (1.0 + s_b * box_range)
    x_c = gt.x_c + dx
    y_c = gt.y_c + dy
    # keep the noisy box inside the frame margin the invariants allow
    x_c = min(max(x_c, -0.25 + l), 1.25 - r) if l + r <= 1.5 else gt.x_c
    y_c = min(max(y_c, -0.25 + t), 1.25 - b) if t + b <= 1.5 else gt.y_c

    c = gt.c
    if rng.random() < cfg.label_flip_prob and num_classes > 1:
        c = (gt.c + 1 + int(rng.integers(num_classes - 1))) % num_classes

    s_l3d, s_w3d, s_h3d, u_theta, u_d = rng.uniform(-1.0, 1.0, size=5).tolist()
    dim_range = cfg.dim_scale_range
    l3d = min(max(gt.l3d * (1.0 + s_l3d * dim_range), 0.05), 29.9)
    w3d = min(max(gt.w3d * (1.0 + s_w3d * dim_range), 0.05), 29.9)
    h3d = min(max(gt.h3d * (1.0 + s_h3d * dim_range), 0.05), 29.9)
    theta = wrap_angle(gt.theta + u_theta * cfg.angle_jitter_rad)
    d = min(max(gt.d * (1.0 + u_d * cfg.depth_jitter_frac), 0.51), 119.0)
    return GroundTruthObject(c, x_c, y_c, l, r, t, b, l3d, w3d, h3d, theta, d)


def box3d_from_ground_truth(gt: GroundTruthObject) -> OrientedBox3D:
    """Lift a ground truth to a camera-frame oriented box via its depth."""
    return OrientedBox3D(*backproject(gt.x_c, gt.y_c, gt.d), gt.l3d, gt.w3d, gt.h3d, gt.theta)

