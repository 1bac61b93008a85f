import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vqdet.geometry import (
    AnchorBox6D,
    BehindCameraError,
    CameraIntrinsics,
    GroundTruthObject,
    NoiseConfig,
    OrientedBox3D,
    apply_box_noise,
    box2d_corners,
    box3d_from_ground_truth,
    iou3d,
    project_to_image,
    wrap_angle,
)
from oracles import giou2d, monte_carlo_iou3d, raster_giou2d


def _random_gt(rng, num_classes=3):
    x_c, y_c = rng.uniform(0.25, 0.75, size=2)
    l, r = rng.uniform(0.02, 0.2, size=2)
    t, b = rng.uniform(0.02, 0.2, size=2)
    return GroundTruthObject(
        c=int(rng.integers(num_classes)), x_c=x_c, y_c=y_c, l=l, r=r, t=t, b=b,
        l3d=rng.uniform(1, 6), w3d=rng.uniform(1, 3), h3d=rng.uniform(1, 3),
        theta=rng.uniform(-math.pi, math.pi), d=rng.uniform(5, 50))


class TestProjection:
    @pytest.mark.parametrize("point,f,c,expected", [
        ((0, 0, 10), 100, (50, 50), (50, 50)),
        ((1, 0, 10), 100, (50, 50), (60, 50)),
        ((0, -2, 4), 100, (64, 64), (64, 14)),
    ])
    def test_hand_cases(self, point, f, c, expected):
        intr = CameraIntrinsics(f=f, cx=c[0], cy=c[1])
        assert project_to_image(point, intr) == pytest.approx(expected)

    def test_behind_camera_rejected(self):
        with pytest.raises(BehindCameraError):
            project_to_image((0, 0, -1), CameraIntrinsics())

    def test_backproject_round_trip(self):
        intr = CameraIntrinsics()
        from vqdet.geometry import backproject
        u, v = project_to_image((2.0, -1.0, 17.0), intr)
        assert_allclose(backproject(u, v, 17.0, intr), [2.0, -1.0, 17.0], atol=1e-12)

    @pytest.mark.parametrize("f,cx,cy", [(0.0, 0.5, 0.5), (-1.0, 0.5, 0.5),
                                         (math.inf, 0.5, 0.5), (1.2, math.nan, 0.5),
                                         (1.2, 0.5, -math.inf)])
    def test_intrinsics_need_finite_positive_focal_and_finite_center(self, f, cx, cy):
        with pytest.raises(ValueError, match="intrinsics"):
            CameraIntrinsics(f=f, cx=cx, cy=cy)


class TestGroundTruthValidation:
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_yaw_rejected(self, theta):
        gt = GroundTruthObject(0, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 3.5, 1.6, 1.5, theta, 20.0)
        with pytest.raises(ValueError, match="yaw"):
            gt.validate(num_classes=3)


class TestIoU3D:
    def test_identical_boxes(self):
        box = OrientedBox3D(1.0, 0.5, 10.0, 4.0, 2.0, 1.5, 0.7)
        assert iou3d(box, box) == 1.0

    def test_far_apart(self):
        a = OrientedBox3D(0, 0, 10, 4, 2, 1.5, 0.0)
        b = OrientedBox3D(100, 0, 10, 4, 2, 1.5, 0.3)
        assert iou3d(a, b) == 0.0

    def test_offset_unit_cubes(self):
        a = OrientedBox3D(0, 0, 0, 1, 1, 1, 0.0)
        b = OrientedBox3D(0.5, 0, 0, 1, 1, 1, 0.0)
        assert iou3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_degenerate_box_is_zero(self):
        a = OrientedBox3D(0, 0, 0, 0.0, 1, 1, 0.0)
        b = OrientedBox3D(0, 0, 0, 1, 1, 1, 0.0)
        assert iou3d(a, b) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = _random_box(rng)
            b = _random_box(rng, near=a)
            assert iou3d(a, b) == pytest.approx(iou3d(b, a), abs=1e-12)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = _random_box(rng)
            b = _random_box(rng, near=a)
            base = iou3d(a, b)
            dx, dz, dyaw = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3)
            moved = iou3d(_transform(a, dx, dz, dyaw), _transform(b, dx, dz, dyaw))
            assert moved == pytest.approx(base, abs=1e-9)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = _random_box(rng)
            b = _random_box(rng, near=a)
            exact = iou3d(a, b)
            sampled = monte_carlo_iou3d(a, b, 10 ** 6, rng)
            assert exact == pytest.approx(sampled, abs=5e-3)


def _random_box(rng, near: OrientedBox3D | None = None) -> OrientedBox3D:
    if near is None:
        center = rng.uniform([-5, -1, 5], [5, 1, 40])
    else:
        center = np.array([near.x, near.y, near.z]) + rng.uniform(-1.5, 1.5, size=3)
    dims = rng.uniform(1.0, 4.5, size=3)
    return OrientedBox3D(center[0], center[1], center[2],
                         dims[0], dims[1], dims[2], rng.uniform(-math.pi, math.pi))


def _transform(box: OrientedBox3D, dx: float, dz: float, dyaw: float) -> OrientedBox3D:
    c, s = math.cos(dyaw), math.sin(dyaw)
    x = box.x * c - box.z * s + dx
    z = box.x * s + box.z * c + dz
    return OrientedBox3D(x, box.y, z, box.l3d, box.w3d, box.h3d,
                         wrap_angle(box.yaw + dyaw))


class TestBox2D:
    def test_corners_hand_case(self):
        a = AnchorBox6D(0.5, 0.5, 0.1, 0.1, 0.1, 0.1)
        assert box2d_corners(a) == pytest.approx((0.4, 0.4, 0.6, 0.6))

    def test_degenerate_point_box(self):
        a = AnchorBox6D(0.3, 0.7, 0, 0, 0, 0)
        assert box2d_corners(a) == (0.3, 0.7, 0.3, 0.7)


class TestGIoU2D:
    def test_identical(self):
        box = (0.1, 0.2, 0.5, 0.9)
        assert giou2d(box, box) == 1.0

    def test_edge_sharing_unit_squares(self):
        assert giou2d((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0

    def test_against_raster_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a = _random_corner_box(rng)
            b = _random_corner_box(rng)
            assert giou2d(a, b) == pytest.approx(raster_giou2d(a, b), abs=2e-3)

    def test_range_property(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            v = giou2d(_random_corner_box(rng), _random_corner_box(rng))
            assert -1.0 < v <= 1.0


def _random_corner_box(rng):
    # O(1) extents keep the 1e-3 raster oracle's edge quantization well
    # inside the 2e-3 comparison tolerance
    x0, y0 = rng.uniform(0, 1.0, size=2)
    return (x0, y0, x0 + rng.uniform(0.3, 1.0), y0 + rng.uniform(0.3, 1.0))


class TestBoxNoise:
    @pytest.mark.parametrize("field,value", [("center_shift_scale", 5.0),
                                             ("box_scale_range", 1.0),
                                             ("label_flip_prob", 1.5)])
    def test_out_of_range_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            NoiseConfig(**{field: value})

    def test_identity_noise(self):
        gt = GroundTruthObject(1, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 4, 2, 1.5, 0.3, 20)
        cfg = NoiseConfig(center_shift_scale=0, box_scale_range=0, label_flip_prob=0,
                          dim_scale_range=0, angle_jitter_rad=0, depth_jitter_frac=0)
        anchor, noisy = apply_box_noise(gt, cfg, np.random.default_rng(0), num_classes=3)
        assert anchor == gt.anchor()
        assert noisy == (1, 4.0, 2.0, 1.5, 0.3, 20.0)

    def test_always_flip_two_classes(self):
        gt = GroundTruthObject(0, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 4, 2, 1.5, 0.0, 20)
        cfg = NoiseConfig(label_flip_prob=1.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            _, noisy = apply_box_noise(gt, cfg, rng, num_classes=2)
            assert noisy[0] == 1

    def test_seeded_reproducibility(self):
        gt = GroundTruthObject(2, 0.4, 0.6, 0.15, 0.1, 0.05, 0.2, 4, 2, 1.5, 1.0, 30)
        cfg = NoiseConfig()
        a = apply_box_noise(gt, cfg, np.random.default_rng(77), num_classes=3)
        b = apply_box_noise(gt, cfg, np.random.default_rng(77), num_classes=3)
        assert a == b

    def test_center_shift_statistics(self):
        gt = GroundTruthObject(0, 0.5, 0.5, 0.2, 0.2, 0.2, 0.2, 4, 2, 1.5, 0.0, 20)
        cfg = NoiseConfig(center_shift_scale=0.4, box_scale_range=0, label_flip_prob=0,
                          dim_scale_range=0, angle_jitter_rad=0, depth_jitter_frac=0)
        rng = np.random.default_rng(5)
        n = 10 ** 5
        shifts = np.empty(n)
        for i in range(n):
            anchor, _ = apply_box_noise(gt, cfg, rng, num_classes=3)
            shifts[i] = anchor.x_c - gt.x_c
        half_extent = 0.2
        assert np.abs(shifts).max() <= 0.4 * half_extent + 1e-12
        # U(-0.08, 0.08): sd = 0.08/sqrt(3); mean within 3 standard errors
        se = 0.08 / math.sqrt(3) / math.sqrt(n)
        assert abs(shifts.mean()) <= 3 * se

    def test_outputs_satisfy_invariants(self):
        rng = np.random.default_rng(6)
        cfg = NoiseConfig()
        for _ in range(300):
            gt = _random_gt(rng)
            anchor, (c, l3d, w3d, h3d, theta, d) = apply_box_noise(gt, cfg, rng, num_classes=3)
            assert min(anchor.l, anchor.r, anchor.t, anchor.b) >= 0
            assert 0 <= c < 3
            assert 0 < l3d < 30 and 0 < w3d < 30 and 0 < h3d < 30
            assert -math.pi < theta <= math.pi
            assert 0.5 < d < 120


def test_box3d_from_ground_truth_center_projects_back():
    intr = CameraIntrinsics()
    gt = GroundTruthObject(0, 0.6, 0.45, 0.1, 0.1, 0.1, 0.1, 4, 2, 1.5, 0.2, 25)
    box = box3d_from_ground_truth(gt, intr)
    u, v = project_to_image((box.x, box.y, box.z), intr)
    assert (u, v) == pytest.approx((0.6, 0.45), abs=1e-12)
    assert box.z == pytest.approx(25.0)
