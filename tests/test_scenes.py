import base64
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vqdet.geometry import OrientedBox3D
from vqdet.scenes import (
    DatasetError,
    Detection,
    Scene,
    SceneConfig,
    ap40,
    dataset_ground_truths,
    generate_dataset,
    generate_scene,
    load_dataset,
    per_class_ap40,
    save_dataset,
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

    def test_near_depth_where_a_corner_can_reach_the_camera_rejected(self):
        with pytest.raises(ValueError, match=r"depth_range near depth 0\.6"):
            SceneConfig(depth_range=(0.6, 1.0))

    @pytest.mark.parametrize("depth_range", [(20.0, 20.0), (30.0, 10.0), (6.0, 120.0)])
    def test_empty_or_too_far_depth_range_rejected(self, depth_range):
        with pytest.raises(ValueError, match="depth_range"):
            SceneConfig(depth_range=depth_range)

    @pytest.mark.parametrize("field,value", [("grid_noise", -0.1), ("grid_noise", math.nan),
                                             ("grid_noise", math.inf),
                                             ("dim_jitter", -0.2), ("dim_jitter", 1.0)])
    def test_negative_noise_or_jitter_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SceneConfig(**{field: value})

    def test_nearest_accepted_depth_samples_valid_scenes(self):
        # 3.985 m is the van's jittered half footprint diagonal, the reach bound
        cfg = SceneConfig(feature_size=4, max_objects=4, depth_range=(3.99, 4.2))
        for seed in range(100):
            generate_scene(np.random.default_rng(seed), cfg, f"s{seed}", seed)


class TestGenerateScene:
    def test_forced_empty_scene(self):
        scene = generate_scene(np.random.default_rng(0), SMALL, "s0", 0, num_objects=0)
        assert scene.objects == []
        assert scene.grid.shape == (8, 8, SMALL.input_channels)
        assert np.abs(scene.grid).max() < 1.0  # pure noise, no splats

    def test_fixed_seed_bit_identical(self):
        a = generate_scene(np.random.default_rng(7), SMALL, "s", 7)
        b = generate_scene(np.random.default_rng(7), SMALL, "s", 7)
        assert_array_equal(a.grid, b.grid)
        assert a.objects == b.objects

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

    def test_grid_encodes_depth_signal(self):
        cfg = SceneConfig(feature_size=16, num_classes=3, grid_noise=0.0)
        scene = generate_scene(np.random.default_rng(3), cfg, "s", 3, num_objects=1)
        gt = scene.objects[0]
        u = min(int(gt.x_c * 16), 15)
        v = min(int(gt.y_c * 16), 15)
        amp = scene.grid[v, u, gt.c]
        inv_depth = scene.grid[v, u, 3]
        assert amp > 0.5
        assert inv_depth / amp == pytest.approx(10.0 / gt.d, rel=0.05)


class TestDatasetRoundTrip:
    def test_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_dataset([], path)
        assert load_dataset(path) == []
        assert path.read_bytes() == b""

    def test_single_scene_bit_exact(self, tmp_path):
        scene = generate_scene(np.random.default_rng(1), SMALL, "one", 1)
        path = tmp_path / "one.jsonl"
        save_dataset([scene], path)
        back = load_dataset(path)[0]
        assert back.scene_id == scene.scene_id
        assert back.seed == scene.seed
        assert back.intrinsics == scene.intrinsics
        assert back.objects == scene.objects
        assert_array_equal(back.grid, scene.grid)

    def test_thousand_scene_round_trip_order_preserved(self, tmp_path):
        cfg = SceneConfig(feature_size=4, num_classes=3, max_objects=2)
        scenes = generate_dataset(100, 1000, cfg)
        path = tmp_path / "big.jsonl"
        save_dataset(scenes, path)
        back = load_dataset(path)
        assert [s.scene_id for s in back] == [s.scene_id for s in scenes]
        for a, b in zip(scenes, back):
            assert a.objects == b.objects
            assert_array_equal(a.grid, b.grid)

    def test_save_is_deterministic(self, tmp_path):
        scenes = generate_dataset(5, 3, SMALL)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(scenes, p1)
        save_dataset(scenes, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        scene = generate_scene(np.random.default_rng(1), SMALL, "ok", 1)
        save_dataset([scene], path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("row,message", [
        ([], "index out of range"),
        ([7, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 3.5, 1.6, 1.5, 0.3, 20.0], "category 7 out of range"),
        ([1, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 3.5, 1.6, 1.5, 0.3, -3.0], "depth out of range"),
        ([1, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 3.5, 1.6, 1.5, math.nan, 20.0], "yaw nan"),
        ([1, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 3.5, 1.6, 1.5, math.inf, 20.0], "yaw inf"),
    ], ids=["empty-row", "category-7", "negative-depth", "nan-yaw", "infinite-yaw"])
    def test_malformed_object_names_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "objects.jsonl"
        save_dataset(generate_dataset(3, 2, SMALL), path)
        first, second = path.read_text().splitlines()
        rec = json.loads(second)
        rec["objects"] = [row]
        path.write_text(first + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(DatasetError, match=rf"objects\.jsonl: line 2: .*{message}"):
            load_dataset(path)

    @pytest.mark.parametrize("key,value,message", [
        ("intrinsics", {"f": 0.0, "cx": 0.5, "cy": 0.5}, "f must be finite and positive"),
        ("intrinsics", {"f": -1.0, "cx": 0.5, "cy": 0.5}, "f must be finite and positive"),
        ("intrinsics", {"f": 1.2, "cx": math.nan, "cy": 0.5}, "cx, cy must be finite"),
        ("grid_shape", [64, 6], r"grid_shape \[64, 6\]"),
        ("grid_b64", "nan", "non-finite"),
    ], ids=["focal-0", "focal-negative", "nan-cx", "2d-grid", "nan-grid-entry"])
    def test_malformed_camera_or_grid_names_path_and_line(self, tmp_path, key, value, message):
        path = tmp_path / "scenes.jsonl"
        save_dataset(generate_dataset(3, 2, SMALL), path)
        first, second = path.read_text().splitlines()
        rec = json.loads(second)
        if key == "grid_b64":
            grid = np.frombuffer(base64.b64decode(rec["grid_b64"]), dtype="<f8").copy()
            grid[5] = math.nan
            value = base64.b64encode(grid.tobytes()).decode("ascii")
        rec[key] = value
        path.write_text(first + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(DatasetError, match=rf"scenes\.jsonl: line 2: .*{message}"):
            load_dataset(path)

    def test_disjoint_seed_ranges_disjoint_ids(self):
        a = generate_dataset(0, 50, SMALL, split="train")
        b = generate_dataset(50, 50, SMALL, split="train")
        ids = {s.scene_id for s in a} | {s.scene_id for s in b}
        assert len(ids) == 100


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
        scenes = generate_dataset(0, 3, SMALL)
        gts = dataset_ground_truths(scenes)
        assert set(gts) == {s.scene_id for s in scenes}
        for s in scenes:
            assert len(gts[s.scene_id]) == len(s.objects)
