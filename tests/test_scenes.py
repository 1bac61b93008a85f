import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vqdet import scenes
from vqdet.geometry import FOCAL, MAX_DEPTH, BehindCameraError, OrientedBox3D, box_fields
from vqdet.losses import TargetArrays
from vqdet.scenes import (
    CLASS_DIMENSIONS,
    DEPTH_RANGE,
    DIM_JITTER,
    Detection,
    SceneConfig,
    ap40,
    dataset_ground_truths,
    generate_scene,
    grid_channels,
    per_class_ap40,
)

SMALL = SceneConfig(feature_size=8, num_classes=3, max_objects=3)


class TestSceneConfigValidation:
    @pytest.mark.parametrize("field", ["feature_size", "num_classes", "max_objects"])
    def test_non_positive_count_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            SceneConfig(**{field: 0})

    @pytest.mark.parametrize("field,value", [("feature_size", 2.5), ("num_classes", 2.0),
                                             ("num_classes", True), ("max_objects", 2.5)])
    def test_non_integer_count_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SceneConfig(**{field: value})

    def test_nearest_accepted_depth_samples_valid_scenes(self):
        # A box turned by its yaw reaches half its footprint diagonal toward the camera.
        reach = (1.0 + DIM_JITTER) * max(math.hypot(l3d, w3d) / 2.0
                                         for l3d, w3d, _ in CLASS_DIMENSIONS)
        assert reach < DEPTH_RANGE[0] < DEPTH_RANGE[1] < MAX_DEPTH

    def test_corner_behind_the_camera_raises(self, monkeypatch):
        """Nearer than a box's reach, a corner crosses the camera plane: no silent 2D box."""
        monkeypatch.setattr(scenes, "DEPTH_RANGE", (1.0, 2.0))
        with pytest.raises(BehindCameraError):
            generate_scene(np.random.default_rng(0), SMALL, "s", 0, num_objects=8)


class TestGenerateScene:
    def test_forced_empty_scene(self):
        scene = generate_scene(np.random.default_rng(0), SMALL, "s0", 0, num_objects=0)
        assert scene.objects == []
        assert scene.grid.shape == (8, 8, grid_channels(SMALL.num_classes))
        assert np.abs(scene.grid).max() < 1.0  # pure noise, no splats

    @pytest.mark.parametrize("count", [-3, -1, 2.5, True, "2", np.float64(2.0), math.nan,
                                       math.inf])
    def test_num_objects_must_be_a_nonnegative_integer(self, count):
        with pytest.raises(ValueError, match=r"^num_objects must be an integer in \[0, inf\)"):
            generate_scene(np.random.default_rng(0), SMALL, "s", 0, num_objects=count)

    def test_num_objects_accepts_numpy_integers(self):
        scene = generate_scene(np.random.default_rng(0), SMALL, "s", 0, num_objects=np.int64(2))
        assert len(scene.objects) == 2

    def test_fixed_seed_bit_identical(self):
        a = generate_scene(np.random.default_rng(7), SMALL, "s", 7)
        b = generate_scene(np.random.default_rng(7), SMALL, "s", 7)
        assert_array_equal(a.grid, b.grid)
        assert a.objects == b.objects

    def test_arrays_built_once_and_rebuilt_by_replace(self):
        """A scene's fields and targets are those of its objects, bit for bit, built
        on first use and kept; a scene made by replace builds its own."""
        scene = generate_scene(np.random.default_rng(7), SMALL, "s", 7, num_objects=3)
        assert len(scene.targets) == 3
        cut = replace(scene, objects=scene.objects[:1])
        assert len(cut.targets) == 1
        for s in (scene, cut):
            classes, fields = box_fields(s.objects)
            want = TargetArrays.of(s.objects)
            assert s.fields[0].tobytes() == classes.tobytes()
            assert s.fields[1].tobytes() == fields.tobytes()
            assert s.targets.classes.tobytes() == want.classes.tobytes()
            assert s.targets.table.tobytes() == want.table.tobytes()
            assert s.fields is s.fields and s.targets is s.targets

    def test_objects_satisfy_invariants(self):
        for seed in range(200):
            scene = generate_scene(np.random.default_rng(seed), SMALL, f"s{seed}", seed)
            assert 1 <= len(scene.objects) <= SMALL.max_objects
            for gt in scene.objects:
                gt.validate(SMALL.num_classes)

    def test_projected_centers_in_unit_square(self):
        count = 0
        inside = 0
        for seed in range(10_000):
            rng = np.random.default_rng(seed)
            scene = generate_scene(rng, SceneConfig(feature_size=4), f"s{seed}", seed)
            for gt in scene.objects:
                count += 1
                inside += (0.0 <= gt.x_c <= 1.0 and 0.0 <= gt.y_c <= 1.0)
        assert inside / count >= 0.99

    def test_grid_encodes_depth_signal(self, monkeypatch):
        monkeypatch.setattr(scenes, "GRID_NOISE", 0.0)
        cfg = SceneConfig(feature_size=16, num_classes=3)
        scene = generate_scene(np.random.default_rng(3), cfg, "s", 3, num_objects=1)
        gt = scene.objects[0]
        u = min(int(gt.x_c * 16), 15)
        v = min(int(gt.y_c * 16), 15)
        amp = scene.grid[v, u, gt.c]
        inv_depth = scene.grid[v, u, 3]
        assert amp > 0.5
        assert inv_depth / amp == pytest.approx(10.0 / gt.d, rel=0.05)


def _box(x=0.0, z=10.0) -> OrientedBox3D:
    return OrientedBox3D(x, 0.0, z, 4.0, 2.0, 1.5, 0.0)


def _det(scene_id, score, box, category=0) -> Detection:
    return Detection(scene_id=scene_id, category=category, score=score, box3d=box)


class TestAP40:
    def _two_scene_truth(self):
        return {
            "a": [(0, _box(0.0)), (0, _box(20.0))],
            "b": [(0, _box(-10.0)), (0, _box(10.0))],
        }

    def test_perfect_detections(self):
        gts = self._two_scene_truth()
        dets = [_det(sid, 1.0, box) for sid, lst in gts.items() for _, box in lst]
        assert ap40(dets, gts, 0.5) == 1.0

    def test_no_detections(self):
        assert ap40([], self._two_scene_truth(), 0.5) == 0.0

    def test_no_ground_truths_is_nan(self):
        assert math.isnan(ap40([_det("a", 1.0, _box())], {"a": []}, 0.5))

    def test_hand_executed_four_detections(self):
        """Two TPs at the top ranks then two FPs: AP is exactly 0.5.

        recalls  [.25, .5, .5, .5], precisions [1, 1, 2/3, .5]; interpolated
        precision is 1 for r <= 0.5 (20 of the 40 points) and 0 above.
        """
        gts = self._two_scene_truth()
        dets = [
            _det("a", 0.9, _box(0.0)),
            _det("a", 0.8, _box(20.0)),
            _det("b", 0.7, _box(100.0)),
            _det("b", 0.6, _box(-100.0)),
        ]
        assert ap40(dets, gts, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_input_order_invariance(self):
        gts = self._two_scene_truth()
        dets = [
            _det("a", 0.9, _box(0.0)),
            _det("a", 0.8, _box(20.0)),
            _det("b", 0.7, _box(100.0)),
            _det("b", 0.5, _box(-10.0)),
        ]
        base = ap40(dets, gts, 0.5)
        assert ap40(list(reversed(dets)), gts, 0.5) == base
        # Equal scores in different scenes rank by scene id, in any input order.
        tied = [_det("b", 0.9, _box(100.0)), _det("a", 0.9, _box(0.0)),
                _det("b", 0.6, _box(10.0)), _det("a", 0.6, _box(-100.0))]
        values = {ap40(list(order), gts, 0.5) for order in itertools.permutations(tied)}
        assert values == {ap40(tied, gts, 0.5)}

    def test_nan_score_rejected_naming_its_scene(self):
        """Ranked, NaN scores made AP depend on how scenes interleave (0.5 to 0.833)."""
        gts = {"a": [(0, _box(0.0))], "b": [(0, _box(0.0))]}
        a = [_det("a", math.nan, _box(100.0)), _det("a", 0.5, _box(0.0))]
        b = [_det("b", 0.9, _box(0.0)), _det("b", math.nan, _box(100.0))]
        for from_a in itertools.combinations(range(4), 2):
            ia, ib = iter(a), iter(b)
            order = [next(ia) if i in from_a else next(ib) for i in range(4)]
            first = next(d.scene_id for d in order if math.isnan(d.score))
            with pytest.raises(ValueError, match=f"scene '{first}' has a NaN score"):
                ap40(order, gts, 0.5)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        gts = self._two_scene_truth()
        dets = []
        for sid, lst in gts.items():
            for _, box in lst:
                shifted = OrientedBox3D(box.x + rng.uniform(0, 1.5), box.y, box.z,
                                        box.l3d, box.w3d, box.h3d, box.yaw)
                dets.append(_det(sid, rng.random(), shifted))
        values = [ap40(dets, gts, thr) for thr in (0.2, 0.4, 0.6, 0.8)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_class_mismatch_never_matches(self):
        gts = {"a": [(1, _box())]}
        dets = [_det("a", 1.0, _box(), category=0)]
        assert ap40(dets, gts, 0.5) == 0.0

    def test_per_class_splits(self):
        gts = {"a": [(0, _box(0.0)), (1, _box(20.0))]}
        dets = [_det("a", 0.9, _box(0.0), category=0),
                _det("a", 0.8, _box(50.0), category=1)]
        per = per_class_ap40(dets, gts, num_classes=3)
        assert per[0] == 1.0
        assert per[1] == 0.0
        assert math.isnan(per[2])

    def test_each_gt_claimed_once(self):
        gts = {"a": [(0, _box(0.0))]}
        dets = [_det("a", 0.9, _box(0.0)), _det("a", 0.8, _box(0.0))]
        # second detection is a duplicate -> FP; recall 1 at rank 1
        # interpolated precision: 1.0 everywhere
        assert ap40(dets, gts, 0.5) == 1.0

    def test_dataset_ground_truths_shape(self):
        built = [generate_scene(np.random.default_rng(seed), SMALL, f"s{seed}", seed)
                 for seed in range(3)]
        gts = dataset_ground_truths(built)
        assert set(gts) == {s.scene_id for s in built}
        for s in built:
            assert len(gts[s.scene_id]) == len(s.objects)


def test_depth_cue_ceilings_of_the_default_scenes():
    """What a depth predictor can reach on the scenes of seeds 0 to 2,999, so that a
    change to the scene constants sees the ceilings it moves.

    A constant (the median depth), and the pinhole depth s·FOCAL·h3d/(t + b)
    from each object's 2D box height with one fitted scale s (the median
    ratio), using the true 3D height or its class's mean height in
    ``CLASS_DIMENSIONS``. A vertical splat
    narrower than its 0.03 floor, (t + b)·0.3 < 0.03, shows the grid no 2D
    height at all.
    """
    objects = [gt for seed in range(3000)
               for gt in generate_scene(np.random.default_rng(seed), SceneConfig(), f"s{seed}",
                                        seed).objects]
    assert len(objects) == 7646
    depth = np.array([gt.d for gt in objects])
    height_2d = np.array([gt.t + gt.b for gt in objects])
    assert np.abs(depth - np.median(depth)).mean() == pytest.approx(8.4629, abs=1e-4)

    def pinhole_mae(h3d):
        geometric = FOCAL * h3d / height_2d
        return np.abs(np.median(depth / geometric) * geometric - depth).mean()

    assert pinhole_mae(np.array([gt.h3d for gt in objects])) == pytest.approx(2.8640, abs=1e-4)
    class_h3d = np.array([CLASS_DIMENSIONS[gt.c][2] for gt in objects])
    assert pinhole_mae(class_h3d) == pytest.approx(3.2615, abs=1e-4)
    assert (height_2d * 0.3 < 0.03).mean() == pytest.approx(0.32187, abs=1e-5)
