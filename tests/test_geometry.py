import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vqdet import geometry
from vqdet.geometry import (
    BehindCameraError,
    GroundTruthObject,
    NoiseConfig,
    OrientedBox3D,
    backproject,
    box3d_from_ground_truth,
    box_fields,
    corrupt_boxes,
    iou3d,
    project_to_image,
    wrap_angle,
)
from vqdet.losses import TargetArrays
from vqdet.model import DetectorConfig
from vqdet.scenes import MAX_COUNT, MAX_FEATURE_SIZE, SceneConfig
from oracles import box2d_corners, giou2d, monte_carlo_iou3d, raster_giou2d


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
    def test_hand_cases(self, monkeypatch, point, f, c, expected):
        # the hand cases are worked in pixels, so the camera is set to them
        monkeypatch.setattr(geometry, "FOCAL", f)
        monkeypatch.setattr(geometry, "CX", c[0])
        monkeypatch.setattr(geometry, "CY", c[1])
        assert project_to_image(point) == pytest.approx(expected)

    def test_behind_camera_rejected(self):
        with pytest.raises(BehindCameraError):
            project_to_image((0, 0, -1))

    def test_backproject_round_trip(self):
        u, v = project_to_image((2.0, -1.0, 17.0))
        assert_allclose(backproject(u, v, 17.0), [2.0, -1.0, 17.0], atol=1e-12)


class TestGroundTruthValidation:
    @pytest.mark.parametrize("edge", range(4))
    def test_zero_edge_distance_rejected(self, edge):
        """The GIoU kernel divides by the target's 2D area, so every edge distance is positive."""
        lrtb = [0.1, 0.1, 0.1, 0.1]
        lrtb[edge] = 0.0
        gt = GroundTruthObject(0, 0.5, 0.5, *lrtb, 3.5, 1.6, 1.5, 0.0, 20.0)
        with pytest.raises(ValueError, match="edge distances must be positive"):
            gt.validate(num_classes=3)

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

    @pytest.mark.parametrize("shift, expected", [(1.0, 0.0), (0.5, 1.0 / 3.0)])
    def test_boxes_shifted_along_their_length_axis(self, shift, expected):
        """Equal boxes shifted by a full length share an edge; by half, overlap by half.

        Their footprints have collinear edges, which rounding can put on both
        sides of a clip line.
        """
        rng = np.random.default_rng(17)
        yaws = np.concatenate([rng.uniform(-math.pi, math.pi, 2000),
                               np.arange(-2, 3) * (math.pi / 2)])
        for yaw in yaws:
            l3d, w3d, h3d = rng.uniform(0.5, 5.0, size=3)
            x, y, z = rng.uniform(-10, 10), rng.uniform(-2, 2), rng.uniform(5, 50)
            a = OrientedBox3D(x, y, z, l3d, w3d, h3d, yaw)
            b = OrientedBox3D(x + shift * l3d * math.cos(yaw), y,
                              z + shift * l3d * math.sin(yaw), l3d, w3d, h3d, yaw)
            assert abs(iou3d(a, b) - expected) <= 1e-12, (a, b)

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


def _box2d(x_c, y_c, l, r, t, b):
    return GroundTruthObject(0, x_c, y_c, l, r, t, b, 4, 2, 1.5, 0.3, 20)


class TestBox2D:
    """``TargetArrays`` corner boxes against the scalar oracle."""

    def test_corners_hand_case(self):
        gt = _box2d(0.5, 0.5, 0.1, 0.1, 0.1, 0.1)
        assert tuple(TargetArrays.of([gt]).corners[0]) == pytest.approx((0.4, 0.4, 0.6, 0.6))
        assert box2d_corners(gt) == pytest.approx((0.4, 0.4, 0.6, 0.6))

    def test_degenerate_point_box(self):
        gt = _box2d(0.3, 0.7, 0, 0, 0, 0)
        assert tuple(TargetArrays.of([gt]).corners[0]) == (0.3, 0.7, 0.3, 0.7)

    def test_random_boxes_equal_the_oracle_bitwise(self):
        rng = np.random.default_rng(12)
        gts = [_random_gt(rng) for _ in range(40)]
        want = np.array([box2d_corners(gt) for gt in gts])
        assert TargetArrays.of(gts).corners.tobytes() == want.tobytes()


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


SETTINGS = [(config, f) for config in (DetectorConfig, SceneConfig, NoiseConfig)
            for f in fields(config)]
# every count lies in [1, inf) and every real number in [0, ...), with this exception
LOWEST = {"noisy_groups": 0}


@pytest.mark.parametrize("config,field", SETTINGS,
                         ids=[f"{config.__name__}.{f.name}" for config, f in SETTINGS])
def test_every_setting_is_checked_naming_its_field(config, field):
    """Each field of each config rejects a bool, a str, None, NaN, infinity and a value
    below its range, with an error that starts with its name, and accepts numpy scalars."""
    integer = isinstance(field.default, int)
    lowest = LOWEST.get(field.name, 1 if integer else 0)
    below = lowest - 1 if integer else math.nextafter(lowest, -math.inf)
    for value in (True, False, str(field.default), None, math.nan, math.inf, below):
        with pytest.raises(ValueError, match=f"^{field.name} "):
            config(**{field.name: value})
    for kind in ((np.int64, np.int32) if integer else (np.float64, np.float32)):
        assert getattr(config(**{field.name: kind(field.default)}), field.name) == kind(
            field.default)


COUNTS = [(config, f) for config, f in SETTINGS if config is not NoiseConfig
          and isinstance(f.default, int)]


@pytest.mark.parametrize("config,field", COUNTS,
                         ids=[f"{config.__name__}.{f.name}" for config, f in COUNTS])
def test_oversized_count_rejected_before_any_allocation(config, field):
    """Each count accepts its largest value and rejects the next one and 4 * 10**30,
    with an error that starts with its name, allocating less than 64 KiB."""
    hi = {"feature_size": MAX_FEATURE_SIZE,
          "max_objects": SceneConfig().feature_size ** 2}.get(field.name, MAX_COUNT)
    # heads must divide the width
    wider = {"width": hi} if config is DetectorConfig and field.name == "heads" else {}
    assert getattr(config(**{field.name: hi}, **wider), field.name) == hi
    for value in (hi + 1, 4 * 10**30):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^{field.name} must be an integer in "
                                                 rf"\[\d, {hi}\], got {value}$"):
                config(**{field.name: value})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def test_closed_bounds_accepted():
    NoiseConfig(center_shift_scale=0, label_flip_prob=1, angle_jitter_rad=math.pi)
    DetectorConfig(noisy_groups=0, lambda_distill=0, confidence_threshold=1)
    DetectorConfig(confidence_threshold=0.0)
    SceneConfig(feature_size=1, num_classes=1, max_objects=1)


class TestBoxNoise:
    @pytest.mark.parametrize("field,value", [("center_shift_scale", 5.0),
                                             ("box_scale_range", 1.0),
                                             ("label_flip_prob", 1.5),
                                             ("dim_scale_range", math.nan),
                                             ("dim_scale_range", 1.0),
                                             ("angle_jitter_rad", math.inf),
                                             ("angle_jitter_rad", -0.1),
                                             ("depth_jitter_frac", -3.0),
                                             ("depth_jitter_frac", math.nan)])
    def test_out_of_range_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            NoiseConfig(**{field: value})

    def test_identity_noise(self):
        gts = [GroundTruthObject(1, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 4, 2, 1.5, 0.3, 20),
               GroundTruthObject(2, 0.3, 0.6, 0.1, 0.2, 0.05, 0.1, 3, 1, 1.2, -3.0, 40)]
        cfg = NoiseConfig(center_shift_scale=0, box_scale_range=0, label_flip_prob=0,
                          dim_scale_range=0, angle_jitter_rad=0, depth_jitter_frac=0)
        classes, fields = box_fields(gts)
        got_classes, got = corrupt_boxes(classes, fields, cfg, np.random.default_rng(0), 3)
        assert got_classes.tolist() == [1, 2]
        assert got.tobytes() == fields.tobytes()

    def test_always_flip_two_classes(self):
        classes = np.array([0, 1] * 25)
        got, _ = corrupt_boxes(classes, np.tile(_one_box_fields(), (50, 1)),
                               NoiseConfig(label_flip_prob=1.0), np.random.default_rng(1), 2)
        assert got.tolist() == [1, 0] * 25

    @pytest.mark.parametrize("num_classes", [3, 5])
    def test_a_flipped_class_never_equals_the_original(self, num_classes):
        classes = np.arange(2000) % num_classes
        got, _ = corrupt_boxes(classes, np.tile(_one_box_fields(), (2000, 1)),
                               NoiseConfig(label_flip_prob=1.0), np.random.default_rng(2),
                               num_classes)
        assert (got != classes).all() and got.min() == 0 and got.max() == num_classes - 1

    def test_seeded_reproducibility(self):
        classes, fields = box_fields([_random_gt(np.random.default_rng(i)) for i in range(6)])
        a = corrupt_boxes(classes, fields, NoiseConfig(), np.random.default_rng(77), 3)
        b = corrupt_boxes(classes, fields, NoiseConfig(), np.random.default_rng(77), 3)
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    def test_center_shift_statistics(self):
        gt = GroundTruthObject(0, 0.5, 0.5, 0.2, 0.2, 0.2, 0.2, 4, 2, 1.5, 0.0, 20)
        cfg = NoiseConfig(center_shift_scale=0.4, box_scale_range=0, label_flip_prob=0,
                          dim_scale_range=0, angle_jitter_rad=0, depth_jitter_frac=0)
        n = 10 ** 5
        classes, fields = box_fields([gt])
        _, noisy = corrupt_boxes(np.tile(classes, n), np.tile(fields, (n, 1)), cfg,
                                 np.random.default_rng(5), 3)
        shifts = noisy[:, 0] - gt.x_c
        half_extent = 0.2
        assert np.abs(shifts).max() <= 0.4 * half_extent + 1e-12
        # U(-0.08, 0.08): sd = 0.08/sqrt(3); mean within 3 standard errors
        se = 0.08 / math.sqrt(3) / math.sqrt(n)
        assert abs(shifts.mean()) <= 3 * se

    def test_yaw_column_is_wrapped_like_wrap_angle(self):
        """Without jitter the yaw column is wrap_angle of the yaw, at and beyond ±pi too."""
        yaws = [math.pi, -math.pi, np.nextafter(math.pi, 4.0), np.nextafter(math.pi, 0.0),
                np.nextafter(-math.pi, -4.0), np.nextafter(-math.pi, 0.0), 0.0, 7.0, -7.0,
                12.5, -3 * math.pi]
        gts = [GroundTruthObject(0, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 4, 2, 1.5, float(yaw), 20)
               for yaw in yaws]
        cfg = NoiseConfig(center_shift_scale=0, box_scale_range=0, label_flip_prob=0,
                          dim_scale_range=0, angle_jitter_rad=0, depth_jitter_frac=0)
        _, noisy = corrupt_boxes(*box_fields(gts), cfg, np.random.default_rng(0), 1)
        assert [x.hex() for x in noisy[:, 9].tolist()] == [wrap_angle(float(y)).hex()
                                                            for y in yaws]

    def test_outputs_satisfy_invariants(self):
        gts = [_random_gt(np.random.default_rng((6, i))) for i in range(300)]
        # a box too wide to shift, one against the frame margin, yaws next to ±pi
        gts[0] = GroundTruthObject(0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 4, 2, 1.5, 3.1, 20)
        gts[1] = GroundTruthObject(0, 0.01, 0.99, 0.2, 0.01, 0.01, 0.2, 29, 0.1, 1.5, -3.1, 110)
        classes, fields = corrupt_boxes(*box_fields(gts), NoiseConfig(),
                                        np.random.default_rng(6), 3)
        for c, row in zip(classes.tolist(), fields.tolist()):
            noisy = GroundTruthObject(c, *row)
            noisy.validate(num_classes=3)
            assert -math.pi < noisy.theta <= math.pi


def _one_box_fields():
    return box_fields([_random_gt(np.random.default_rng(3))])[1]


def test_box3d_from_ground_truth_center_projects_back():
    gt = GroundTruthObject(0, 0.6, 0.45, 0.1, 0.1, 0.1, 0.1, 4, 2, 1.5, 0.2, 25)
    box = box3d_from_ground_truth(gt)
    u, v = project_to_image((box.x, box.y, box.z))
    assert (u, v) == pytest.approx((0.6, 0.45), abs=1e-12)
    assert box.z == pytest.approx(25.0)
