import math
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vqdet import numerics as nm
from vqdet.gradcheck import _away_from, check_scalar_fn, OP_TOLERANCE

from oracles import (absolute, divide, matmul, maximum, minimum, narrow_cols, narrow_rows,
                     softmax_rows, transpose)


def test_matmul_identity():
    b = nm.Tensor(np.arange(9.0).reshape(3, 3))
    out = matmul(nm.Tensor(np.eye(3)), b)
    assert_array_equal(out.data, b.data)


def test_matmul_hand_case():
    a = nm.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = nm.Tensor([[1.0], [1.0]])
    assert_array_equal(matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(nm.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(nm.Tensor(np.zeros((2, 3))), nm.Tensor(np.zeros((2, 3))))


def test_softmax_uniform_row():
    out = softmax_rows(nm.Tensor(np.zeros((1, 4))))
    assert_allclose(out.data, np.full((1, 4), 0.25), rtol=0, atol=1e-15)


def test_softmax_large_logit_no_overflow():
    out = softmax_rows(nm.Tensor([[1000.0, 0.0]]))
    assert np.isfinite(out.data).all()
    assert_allclose(out.data[0, 0], 1.0, atol=1e-12)
    assert out.data[0, 1] == 0.0  # underflows exactly


def test_softmax_masked_symmetry():
    allow = np.array([[True, False, True]])
    out = softmax_rows(nm.Tensor([[1.0, 1.0, 1.0]]), allow)
    assert_array_equal(out.data, [[0.5, 0.0, 0.5]])


def test_softmax_fully_masked_row_raises():
    allow = np.array([[True, True], [False, False]])
    with pytest.raises(nm.DegenerateMaskError, match="row 1"):
        softmax_rows(nm.Tensor(np.zeros((2, 2))), allow)


def test_softmax_rows_sum_to_one_over_allowed():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 8)) * 5
    allow = rng.random((8, 8)) > 0.4
    allow[:, 0] = True
    p = softmax_rows(nm.Tensor(x), allow).data
    assert_allclose(p.sum(axis=1), np.ones(8), rtol=0, atol=1e-12)
    assert_array_equal(p[~allow], np.zeros((~allow).sum()))


def test_layer_norm_constant_row_zeros():
    out = nm.layer_norm(nm.Tensor([[3.0, 3.0, 3.0]]),
                        nm.Tensor(np.ones(3)), nm.Tensor(np.zeros(3)))
    assert_allclose(out.data, np.zeros((1, 3)), atol=1e-9)


def test_layer_norm_unit_variance_row():
    out = nm.layer_norm(nm.Tensor([[1.0, -1.0]]),
                        nm.Tensor(np.ones(2)), nm.Tensor(np.zeros(2)))
    assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)


def test_linear_identity_and_zero_input():
    x = nm.Tensor(np.arange(6.0).reshape(2, 3))
    w = nm.Tensor(np.eye(3))
    b = nm.Tensor(np.zeros(3))
    assert_array_equal(nm.linear(x, w, b).data, x.data)
    z = nm.Tensor(np.zeros((2, 3)))
    bb = nm.Tensor([1.0, 2.0, 3.0])
    assert_array_equal(nm.linear(z, w, bb).data, np.tile([1.0, 2.0, 3.0], (2, 1)))


@pytest.mark.parametrize("d,expected", [(0.5, 0.125), (2.0, 1.5), (0.0, 0.0)])
def test_smooth_l1_branch_values(d, expected):
    out = nm.weighted_row_smooth_l1(nm.Tensor([[d]]), nm.Tensor([[0.0]]), np.ones(1))
    assert out.item() == pytest.approx(expected, abs=1e-12)


def test_gaussian_kl_unit_values():
    assert nm.gaussian_kl(nm.Tensor(0.0), nm.Tensor(0.0)).item() == 0.0
    assert nm.gaussian_kl(nm.Tensor(1.0), nm.Tensor(0.0)).item() == pytest.approx(0.5, abs=1e-12)
    assert nm.gaussian_kl(nm.Tensor(0.0), nm.Tensor(1.0)).item() == pytest.approx(
        0.5 * (math.e - 2.0), abs=1e-12)


def test_gaussian_kl_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        nm.gaussian_kl(nm.Tensor(np.array([np.inf])), nm.Tensor(np.array([0.0])))


def test_gaussian_kl_nonnegative_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        mu = rng.normal(size=(3, 5))
        lv = rng.normal(size=(3, 5))
        assert nm.gaussian_kl(nm.Tensor(mu), nm.Tensor(lv)).item() >= 0.0


def test_backward_sum_gives_ones():
    x = nm.Tensor(np.zeros((2, 3)), requires_grad=True)
    loss = nm.sum_all(x)
    nm.backward(loss)
    assert_array_equal(x.grad, np.ones((2, 3)))
    assert loss.grad is None  # only leaves keep a gradient


def test_backward_unreached_param_gets_zeros():
    store = nm.ParameterStore(rng_seed=0)
    x = store.param("x", (2, 2))
    y = store.param("y", (2, 2))
    nm.backward(nm.sum_all(x * x), store)
    assert_array_equal(y.grad, np.zeros((2, 2)))
    assert_allclose(x.grad, 2 * x.data)


def test_backward_twice_raises():
    x = nm.Tensor(np.ones(3), requires_grad=True)
    loss = nm.sum_all(x)
    nm.backward(loss)
    with pytest.raises(nm.DoubleBackwardError):
        nm.backward(loss)


def test_backward_names_planted_nan_parameter():
    store = nm.ParameterStore(rng_seed=0)
    w = store.param("a.w", (3, 2))
    b = store.param("a.b", (2,), scale=0.0)
    b.data[1] = np.nan
    loss = nm.sum_all(nm.softplus(nm.linear(nm.Tensor(np.ones((4, 3))), w, b)))
    with pytest.raises(FloatingPointError, match=r"parameter 'a\.b' \(2,\)"):
        nm.backward(loss, store)
    assert w.grad is None


def test_backward_names_first_op_that_overflows():
    x = nm.Tensor(np.array([[1.0, 800.0]]), requires_grad=True)
    with np.errstate(over="ignore"):
        loss = nm.sum_all(nm.relu(nm.exp(x * 2.0)))
    with pytest.raises(FloatingPointError, match=r"exp output \(1, 2\)"):
        nm.backward(loss)


def _taped_chain(x: nm.Tensor) -> nm.Tensor:
    return nm.sum_all(nm.softplus(nm.linear(x, x, nm.Tensor(np.ones(2)))) * 2.0)


def test_no_grad_records_no_tape_and_same_values():
    x = nm.Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
    taped = _taped_chain(x)
    with nm.no_grad():
        plain = _taped_chain(x)
    assert taped.requires_grad and taped._parents
    assert not plain.requires_grad and plain._parents == () and plain._vjp is None
    assert plain.data.tobytes() == taped.data.tobytes()


def test_only_same_shape_or_scalar_operands_broadcast():
    m = nm.Tensor(np.ones((2, 3)), requires_grad=True)
    c = nm.Tensor(2.0, requires_grad=True)
    nm.backward(nm.sum_all(m * c + 1.0))
    assert_array_equal(m.grad, np.full((2, 3), 2.0))
    assert c.grad == 6.0
    for other in (np.ones(3), np.ones((3, 1))):
        with pytest.raises(nm.ShapeError, match=r"add: incompatible shapes \(2, 3\)"):
            m + nm.Tensor(other)
        with pytest.raises(nm.ShapeError, match=r"mul: incompatible shapes \(2, 3\)"):
            m * nm.Tensor(other)


def test_no_grad_restored_after_exception_and_nesting():
    x = nm.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(nm.ShapeError):
        with nm.no_grad():
            nm.linear(x, nm.Tensor(np.ones((3, 2))), nm.Tensor(np.ones(2)))
    assert _taped_chain(x).requires_grad
    with nm.no_grad():
        with nm.no_grad():
            pass
        assert not _taped_chain(x).requires_grad
    loss = _taped_chain(x)
    assert loss._parents
    nm.backward(loss)
    assert x.grad is not None and np.isfinite(x.grad).all()


def test_backward_composite_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4))
    w1 = rng.normal(size=(4, 5))
    b1 = rng.normal(size=(5,))
    w2 = rng.normal(size=(5, 2))
    b2 = rng.normal(size=(2,))
    gain = rng.normal(size=(5,)) + 1.0
    bias = rng.normal(size=(5,))

    def build(ts):
        h = nm.layer_norm(nm.relu(nm.linear(ts[0], ts[1], ts[2])), ts[5], ts[6])
        out = nm.sigmoid(nm.linear(h, ts[3], ts[4]))
        return nm.sum_all(out * out) * (1 / out.data.size)

    err = check_scalar_fn(build, [x, w1, b1, w2, b2, gain, bias])
    assert err <= OP_TOLERANCE


def test_backward_accumulates_into_a_scalar_used_twice():
    x = nm.Tensor(1.5, requires_grad=True)
    y = x * 2.0
    nm.backward(y * 3.0 + y * 5.0)
    assert x.grad == 16.0


def test_weighted_sum_bitwise_equals_written_out_sum():
    rng = np.random.default_rng(8)
    vals, ws = rng.normal(size=4), rng.normal(size=4)
    terms = [nm.Tensor(v, requires_grad=True) for v in vals]
    out = nm.weighted_sum(terms, ws)
    a, b, c, d = (nm.Tensor(v) for v in vals)
    assert out.item() == (a * ws[0] + b * ws[1] + c * ws[2] + d * ws[3]).item()
    nm.backward(out)
    assert [t.grad for t in terms] == list(ws)
    with pytest.raises(nm.ShapeError):
        nm.weighted_sum([nm.Tensor(np.zeros(2))], [1.0])
    with pytest.raises(nm.ShapeError):
        nm.weighted_sum(terms, ws[:3])


def test_forward_bit_determinism():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 6))
    a = softmax_rows(nm.Tensor(x)).data
    b = softmax_rows(nm.Tensor(x.copy())).data
    assert_array_equal(a, b)


def test_gather_rows_scatter_adds_duplicates():
    x = nm.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = nm.gather_rows(x, [1, 1, 2])
    nm.backward(nm.sum_all(out))
    assert_array_equal(x.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])


def test_concat_narrow_round_trip():
    rng = np.random.default_rng(9)
    blocks = [rng.normal(size=(k, 4)) for k in (2, 3, 1)]
    cat = nm.concat_rows([nm.Tensor(b) for b in blocks])
    start = 0
    for b in blocks:
        piece = narrow_rows(cat, start, b.shape[0])
        assert_array_equal(piece.data, b)
        start += b.shape[0]


def test_weighted_row_smooth_l1_empty_is_zero():
    out = nm.weighted_row_smooth_l1(nm.Tensor(np.zeros((0, 4))),
                                    nm.Tensor(np.zeros((0, 4))), np.zeros(0))
    assert out.item() == 0.0


def test_weighted_row_smooth_l1_matches_manual():
    pred = np.array([[0.5, 0.0], [2.0, 0.0]])
    target = np.zeros((2, 2))
    w = np.array([1.0, 0.5])
    out = nm.weighted_row_smooth_l1(nm.Tensor(pred), nm.Tensor(target), w)
    expected = 1.0 * (0.125 + 0.0) / 2 + 0.5 * (1.5 + 0.0) / 2
    assert out.item() == pytest.approx(expected, abs=1e-12)


# The reference ops in tests/oracles.py, each drawn 50 times from a stream
# seeded by the CRC of its name, as the grad-check registry draws its entries.

def _matmul_case(rng):
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    return lambda ts: nm.sum_all(matmul(ts[0], ts[1])), [a, b]


def _softmax_rows_case(rng):
    x = rng.normal(size=(4, 6)) * 2.0
    allow = rng.random(size=(4, 6)) > 0.3
    allow[:, 0] = True
    proj = rng.normal(size=(4, 6))
    return lambda ts: nm.sum_all(softmax_rows(ts[0], allow) * nm.Tensor(proj)), [x]


def _absolute_case(rng):
    x = _away_from(rng.normal(size=(4, 4)), [0.0])
    p = rng.normal(size=(4, 4))
    return lambda ts: nm.sum_all(absolute(ts[0]) * nm.Tensor(p)), [x]


def _divide_case(rng):
    a = rng.normal(size=(3, 4))
    b = rng.uniform(0.5, 2.0, size=(3, 4)) * np.where(rng.random((3, 4)) > 0.5, 1, -1)
    p = rng.normal(size=(3, 4))
    return lambda ts: nm.sum_all(divide(ts[0], ts[1]) * nm.Tensor(p)), [a, b]


def _minimum_maximum_case(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    b = np.where(np.abs(a - b) < 1e-3, b + 5e-3, b)
    p = rng.normal(size=(3, 4))
    q = rng.normal(size=(3, 4))
    return (lambda ts: nm.sum_all(minimum(ts[0], ts[1]) * nm.Tensor(p)
                                  + maximum(ts[0], ts[1]) * nm.Tensor(q)), [a, b])


def _transpose_narrow_cols_case(rng):
    x = rng.normal(size=(3, 5))
    p = rng.normal(size=(2, 3))
    return lambda ts: nm.sum_all(transpose(narrow_cols(ts[0], 1, 2)) * nm.Tensor(p)), [x]


def _narrow_rows_case(rng):
    x = rng.normal(size=(5, 3))
    p = rng.normal(size=(3, 3))
    return lambda ts: nm.sum_all(narrow_rows(ts[0], 1, 3) * nm.Tensor(p)), [x]


REFERENCE_OP_CASES = {
    "matmul": _matmul_case,
    "softmax_rows": _softmax_rows_case,
    "absolute": _absolute_case,
    "divide": _divide_case,
    "minimum_maximum": _minimum_maximum_case,
    "transpose_narrow_cols": _transpose_narrow_cols_case,
    "narrow_rows": _narrow_rows_case,
}


@pytest.mark.parametrize("name", list(REFERENCE_OP_CASES))
def test_reference_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(50):
        build, arrays = REFERENCE_OP_CASES[name](rng)
        assert check_scalar_fn(build, arrays) <= OP_TOLERANCE


class TestParameterStore:
    def test_deterministic_iteration_order(self):
        s = nm.ParameterStore(rng_seed=4)
        s.param("b", (2,), scale=0.0)
        s.param("a", (3,), scale=0.0)
        assert s.names() == ["b", "a"]

    def test_same_seed_same_init(self):
        a = nm.ParameterStore(rng_seed=12).param("w", (4, 4))
        b = nm.ParameterStore(rng_seed=12).param("w", (4, 4))
        assert_array_equal(a.data, b.data)

    def test_shape_conflict_rejected(self):
        s = nm.ParameterStore(rng_seed=0)
        s.param("w", (2, 2))
        with pytest.raises(nm.ShapeError):
            s.param("w", (3, 2))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        store = nm.ParameterStore(rng_seed=3)
        store.param("layer.w", (3, 4))
        store.param("layer.b", (4,), scale=0.0)
        store.param("scalar", ())
        path = tmp_path / "ckpt.bin"
        nm.save_checkpoint(store, path)
        values = nm.load_checkpoint(path)
        assert set(values) == {"layer.w", "layer.b", "scalar"}
        for name, t in store.items():
            assert_array_equal(values[name], t.data)

    def test_magic_and_layout(self, tmp_path):
        store = nm.ParameterStore(rng_seed=0)
        store.param("p", (2,), scale=0.0)
        path = tmp_path / "ckpt.bin"
        nm.save_checkpoint(store, path)
        blob = path.read_bytes()
        assert blob[:4] == b"VQD1"
        assert int.from_bytes(blob[4:8], "little") == 2
        assert int.from_bytes(blob[8:12], "little") == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            nm.load_checkpoint(path)

    def test_restore_into(self, tmp_path):
        store = nm.ParameterStore(rng_seed=3)
        store.param("w", (2, 2))
        path = tmp_path / "c.bin"
        nm.save_checkpoint(store, path)
        other = nm.ParameterStore(rng_seed=99)
        other.param("w", (2, 2))
        nm.restore_into(other, nm.load_checkpoint(path))
        assert_array_equal(other["w"].data, store["w"].data)

    def test_restore_into_rejects_missing_and_unexpected_names(self, tmp_path):
        store = nm.ParameterStore(rng_seed=3)
        store.param("w", (2, 2))
        store.param("extra.b", (2,))
        path = tmp_path / "c.bin"
        nm.save_checkpoint(store, path)
        smaller = nm.ParameterStore(rng_seed=4)
        smaller.param("w", (2, 2))
        before = smaller["w"].data.copy()
        with pytest.raises(KeyError, match=r"lacks: \['extra\.b'\]"):
            nm.restore_into(smaller, nm.load_checkpoint(path))
        assert_array_equal(smaller["w"].data, before)  # nothing copied
        larger = nm.ParameterStore(rng_seed=5)
        for name in ("w", "extra.b", "more"):
            larger.param(name, (2,) if name != "w" else (2, 2))
        with pytest.raises(KeyError, match=r"missing parameters: \['more'\]"):
            nm.restore_into(larger, nm.load_checkpoint(path))

    def test_deeper_detector_checkpoint_does_not_restore_into_shallower(self, tmp_path):
        from vqdet.model import Detector, DetectorConfig

        small = dict(groups=1, queries_per_group=2, noisy_groups=0, width=8, heads=2,
                     feature_size=3, num_classes=2)
        path = tmp_path / "deep.bin"
        nm.save_checkpoint(Detector(DetectorConfig(layers=6, **small), seed=0).store, path)
        with pytest.raises(KeyError, match="dec4"):
            nm.restore_into(Detector(DetectorConfig(layers=4, **small), seed=0).store,
                            nm.load_checkpoint(path))

    def _saved(self, tmp_path):
        store = nm.ParameterStore(rng_seed=1)
        store.param("a.w", (2, 3))
        store.param("b", (2,))
        path = tmp_path / "ckpt.bin"
        nm.save_checkpoint(store, path)
        return path, path.read_bytes()

    def test_truncated_file_names_path_and_record(self, tmp_path):
        path, blob = self._saved(tmp_path)
        for cut in (3, 16, 20):
            path.write_bytes(blob[:-cut])
            with pytest.raises(ValueError, match=r"ckpt\.bin: record 1 \('b'\) is truncated"):
                nm.load_checkpoint(path)

    def test_file_cut_at_a_record_boundary_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[:12 + 4 + 3 + 4 + 16 + 48])  # header and record 0 only
        with pytest.raises(ValueError,
                           match=r"ckpt\.bin: the header promises 2 records, the file holds 1"):
            nm.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob + b"\x00\x00")
        with pytest.raises(ValueError, match=r"ckpt\.bin: 2 trailing bytes after 2 records"):
            nm.load_checkpoint(path)

    def test_name_not_utf8_names_path_and_record(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[:16] + b"\xff" + blob[17:])  # first byte of record 0's name
        with pytest.raises(ValueError, match=r"ckpt\.bin: record 0 has a name that is not UTF-8"):
            nm.load_checkpoint(path)

    def test_duplicated_name_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        first_record = blob[12:12 + 4 + 3 + 4 + 16 + 48]
        path.write_bytes(blob + first_record)
        with pytest.raises(ValueError, match=r"ckpt\.bin: record 2 \('a\.w'\) repeats"):
            nm.load_checkpoint(path)
