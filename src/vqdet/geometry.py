"""Box representations, pinhole projection, oriented IoU, and box noising.

Ground-truth objects carry a twelve-field tuple: category, projected center,
distances to the four 2D box edges, metric 3D dimensions, yaw, and central
depth; :func:`box_fields` turns a list of them into a class column and an
(n, 11) array of the other fields. :func:`corrupt_boxes` noises n such rows
at once with one fixed set of generator calls whatever n is, in this order:
six uniforms per row (center shift x and y, then the four edge scales), one
flip test per row, one label offset per row when there is more than one
class, then five uniforms per row (three dimension scales, yaw, depth).
Image coordinates are normalized to [0, 1] on both axes. The camera frame is
x right, y down, z forward; yaw rotates a box about the vertical (y) axis,
turning its length axis from +x toward +z. :func:`backproject` lifts a point
or whole columns of image coordinates and depths with the same formula.
:func:`bev_corners` gives an oriented box's one set of corners, its
footprint: :func:`iou3d` clips it, and the scene sampler projects it at the
box's bottom and top.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi
FOCAL, CX, CY = 1.2, 0.5, 0.5  # the pinhole camera, in normalized image units
MAX_DEPTH = 120.0  # meters; a ground truth lies nearer than this
# the bounds of a noisy box's fields, in GroundTruthObject order after c
NOISY_FIELD_MIN = np.array([-np.inf] * 6 + [0.05] * 3 + [-np.inf, 0.51])
NOISY_FIELD_MAX = np.array([np.inf] * 6 + [29.9] * 3 + [np.inf, 119.0])


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


def check_setting(name: str, value, lo: float, hi: float = math.inf, *,
                  integer: bool = False, closed: bool = False) -> None:
    """Raise ValueError, starting with ``name``, unless ``value`` is an integer if ``integer``,
    else a real number, is not a bool, and lies in [lo, hi), or in [lo, hi] if ``closed`` or
    ``integer``."""
    kind = (int, np.integer) if integer else numbers.Real
    closed = closed or integer
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (lo <= value <= hi if closed else lo <= value < hi)):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a real number'} in "
                         f"[{lo:g}, {hi:g}{']' if closed else ')'}, got {value!r}")


@dataclass(frozen=True)
class NoiseConfig:
    """Corruption strengths for turning ground truths into noisy boxes.

    Defaults follow the published 2D denoising recipe (center shift and box
    scale 0.4, label flip 0.25) extended with mild 3D attribute jitter.
    :func:`corrupt_boxes` applies them to n rows with, in this order,
    ``uniform(-1, 1, (n, 6))``, ``random(n)``, ``integers(num_classes - 1,
    size=n)`` (only with more than one class) and ``uniform(-1, 1, (n, 5))``.
    """

    center_shift_scale: float = 0.4
    box_scale_range: float = 0.4
    label_flip_prob: float = 0.25
    dim_scale_range: float = 0.2
    angle_jitter_rad: float = math.pi / 8
    depth_jitter_frac: float = 0.1

    def __post_init__(self):
        closed = {"label_flip_prob": 1.0, "angle_jitter_rad": math.pi}  # else [0, 1)
        for f in fields(self):
            check_setting(f.name, getattr(self, f.name), 0, closed.get(f.name, 1),
                          closed=f.name in closed)


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


def box_fields(objects: Sequence[GroundTruthObject]) -> tuple[np.ndarray, np.ndarray]:
    """The (n,) classes and the (n, 11) other fields of ``objects``, in field order."""
    fields = np.array([(gt.x_c, gt.y_c, gt.l, gt.r, gt.t, gt.b, gt.l3d, gt.w3d, gt.h3d,
                        gt.theta, gt.d) for gt in objects], dtype=np.float64)
    return np.array([gt.c for gt in objects], dtype=np.intp), fields.reshape(len(objects), 11)


def corrupt_boxes(classes: np.ndarray, fields: np.ndarray, cfg: NoiseConfig,
                  rng: np.random.Generator, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt n ground truths, the arrays of :func:`box_fields`, into noisy boxes.

    Each whole 2D box is shifted by up to ±center_shift_scale of its half
    extent per axis, each edge distance is scaled independently, the label is
    resampled over the other classes with label_flip_prob (a flipped class c
    becomes (c + 1 + offset) % num_classes), and dimensions, yaw, and depth
    receive their configured jitter. Outputs are re-clamped to the
    ground-truth invariants. The draws are the generator calls listed in
    :class:`NoiseConfig`, in that order, so a seeded generator reproduces
    the output bit for bit.
    """
    n = len(classes)
    shift_edges = rng.uniform(-1.0, 1.0, (n, 6))
    flipped = rng.random(n) < cfg.label_flip_prob
    if num_classes > 1:
        offsets = rng.integers(num_classes - 1, size=n)
        classes = np.where(flipped, (classes + 1 + offsets) % num_classes, classes)
    # one draw per field, in field order, times the field's noise strength
    shift, box, dim = cfg.center_shift_scale, cfg.box_scale_range, cfg.dim_scale_range
    strengths = np.array([shift, shift, box, box, box, box, dim, dim, dim,
                          cfg.angle_jitter_rad, cfg.depth_jitter_frac])
    jitter = np.concatenate([shift_edges, rng.uniform(-1.0, 1.0, (n, 5))], axis=1) * strengths

    # edges, dimensions and depth scale by 1 + jitter; dimensions and depth are clamped
    out = np.minimum(np.maximum(fields * (1.0 + jitter), NOISY_FIELD_MIN), NOISY_FIELD_MAX)
    # a center moves by its jitter times the half extent, clamped into the frame margin;
    # a box too wide for the margin keeps its center
    centers = fields[:, :2] + jitter[:, :2] * ((fields[:, 2:6:2] + fields[:, 3:6:2]) / 2.0)
    near, far = out[:, 2:6:2], out[:, 3:6:2]  # the (l, t) and (r, b) edge distances
    moved = np.minimum(np.maximum(centers, -0.25 + near), 1.25 - far)
    out[:, :2] = np.where(near + far <= 1.5, moved, fields[:, :2])
    # the yaw is shifted by its jitter, and wrap_angle applied to the column; pi itself
    # passes through wrap_angle's fmod branch unchanged, so |yaw| < pi picks the rows it keeps
    theta = fields[:, 9] + jitter[:, 9]
    wrapped = np.fmod(theta + math.pi, TWO_PI)
    wrapped = np.where(wrapped <= 0.0, wrapped + TWO_PI, wrapped) - math.pi
    out[:, 9] = np.where(np.abs(theta) < math.pi, theta, wrapped)
    return classes, out


def box3d_from_ground_truth(gt: GroundTruthObject) -> OrientedBox3D:
    """Lift a ground truth to a camera-frame oriented box via its depth."""
    return OrientedBox3D(*backproject(gt.x_c, gt.y_c, gt.d), gt.l3d, gt.w3d, gt.h3d, gt.theta)

