import gc
import math
import threading
import weakref
import zipfile
import zlib
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vqdet import numerics as nm
from vqdet.attention import build_denoising_mask
from vqdet.geometry import NoiseConfig
from vqdet.gradcheck import _away_from, check_scalar_fn, OP_TOLERANCE
from vqdet.losses import TargetArrays, block_terms, component_loss, corner_boxes
from vqdet.model import Detector, DetectorConfig, training_loss
from vqdet.scenes import SceneConfig, generate_scene
from vqdet.vqd import DenoisingConfig

from oracles import (HalfHeadsWorker, LateWorker, absolute, divide, matmul, maximum, minimum,
                     narrow_cols, narrow_rows, real_worker, recorded, softmax_rows, softplus,
                     transpose)


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
    out = nm.weighted_row_smooth_l1(nm.Tensor([[d]]), np.zeros((1, 1)), np.ones(1))
    assert out.item() == pytest.approx(expected, abs=1e-12)


def test_gaussian_kl_unit_values():
    assert nm.gaussian_kl(nm.Tensor(0.0), nm.Tensor(0.0)).item() == 0.0
    assert nm.gaussian_kl(nm.Tensor(1.0), nm.Tensor(0.0)).item() == pytest.approx(0.5, abs=1e-12)
    assert nm.gaussian_kl(nm.Tensor(0.0), nm.Tensor(1.0)).item() == pytest.approx(
        0.5 * (math.e - 2.0), abs=1e-12)


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


def test_a_second_walk_through_a_walked_op_raises_before_any_gradient():
    """Two losses share an op: after the first walk, backward of the second raises,
    and the leaf it reaches before the shared op keeps its gradient byte for byte."""
    rng = np.random.default_rng(19)
    x, y = (nm.Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in "xy")
    shared = nm.sum_all(x * 3.0)
    nm.backward(nm.weighted_sum([shared, nm.sum_all(y)], [1.0, 2.0]))
    before = x.grad.tobytes() + y.grad.tobytes()
    with pytest.raises(nm.DoubleBackwardError, match="rebuild the graph"):
        nm.backward(nm.weighted_sum([nm.sum_all(y * 5.0), shared], [1.0, 1.0]))
    assert x.grad.tobytes() + y.grad.tobytes() == before
    with pytest.raises(nm.DoubleBackwardError):  # a walked op as the loss
        nm.backward(shared)


def _saved(vjp, name: str) -> np.ndarray:
    """The array that the VJP closure ``vjp`` holds under ``name``."""
    return vjp.__closure__[vjp.__code__.co_freevars.index(name)].cell_contents


@contextmanager
def _refcounting_only():
    """No cyclic garbage collection: what dies inside dies by reference counting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("call", ["encoder, worker", "encoder, no worker", "masked decoder"])
def test_attention_exponentials_die_with_their_vjp(call, monkeypatch):
    """An attention call's saved exponentials are freed once its VJP has run,
    before the walk reaches the op below it."""
    monkeypatch.setattr(nm, "_worker", None if call == "encoder, no worker" else real_worker())
    rows, allow = (56, build_denoising_mask(16, 4, 3)) if call == "masked decoder" else (256, None)
    rng = np.random.default_rng(20)
    x = nm.Tensor(rng.normal(size=(rows, 64)), requires_grad=True)
    alive = []

    def vjp(g):  # the op below the attention: is its map still alive?
        alive.append(e() is not None)
        return (g,)

    below = nm._node(x.data.copy(), (x,), vjp)
    out, weights = nm.multihead_attention(below, below, below, 4, allow)
    e = weakref.ref(_saved(out._vjp, "e"))
    if weights is not None:
        weights()  # read the maps, as the step does, and drop the function
        del weights
    with _refcounting_only():
        nm.backward(nm.sum_all(out * nm.Tensor(rng.normal(size=out.data.shape))))
        assert alive == [False] and e() is None
    assert np.isfinite(x.grad).all()


def test_a_steps_attention_maps_die_in_backward_and_its_tape_stays_readable():
    """Every attention map of the default step is freed by its backward, and the
    tape walked afterwards still has its 161 nodes and their bytes."""
    det = Detector(DetectorConfig(), seed=7)
    scene = generate_scene(np.random.default_rng(7), SceneConfig(), "s7", 7, num_objects=4)
    noisy = det.draw_noisy_queries(scene, NoiseConfig(), np.random.default_rng(8))
    out = training_loss(det, scene, noisy, DenoisingConfig())
    tape = [(id(t), t.data.nbytes) for t in recorded([out.total])]
    maps = [weakref.ref(_saved(t._vjp, "e")) for t in recorded([out.total])
            if t._vjp.__qualname__.startswith("multihead_attention.")]
    assert len(maps) == 1 + 2 * DetectorConfig().layers  # the encoder's, then two a layer
    with _refcounting_only():
        nm.backward(out.total, det.store)
        assert [m() is None for m in maps] == [True] * len(maps)
    assert len(tape) == 161
    assert [(id(t), t.data.nbytes) for t in recorded([out.total])] == tape


def test_backward_names_planted_nan_parameter():
    store = nm.ParameterStore(rng_seed=0)
    w = store.param("a.w", (3, 2))
    b = store.param("a.b", (2,), scale=0.0)
    b.data[1] = np.nan
    loss = nm.sum_all(softplus(nm.linear(nm.Tensor(np.ones((4, 3))), w, b)))
    with pytest.raises(FloatingPointError, match=r"parameter 'a\.b' \(2,\)"):
        nm.backward(loss, store)
    assert w.grad is None


def test_backward_names_first_op_that_overflows():
    x = nm.Tensor(np.array([[1.0, 800.0]]), requires_grad=True)
    with np.errstate(over="ignore"):
        loss = nm.sum_all(nm.relu(nm.exp(x * 2.0)))
    with pytest.raises(FloatingPointError, match=r"exp output \(1, 2\)"):
        nm.backward(loss)


def test_relu_passes_nan_on_so_backward_names_it():
    store = nm.ParameterStore(rng_seed=0)
    w = store.param("a.w", (2, 2))
    b = store.param("a.b", (2,), scale=0.0)
    x = nm.Tensor(np.array([[1.0, np.nan], [0.5, -0.5]]))
    loss = nm.sum_all(nm.relu(nm.linear(x, w, b)))
    assert np.isnan(loss.item())
    with pytest.raises(FloatingPointError, match=r"non-finite tensor: linear output \(2, 2\)"):
        nm.backward(loss, store)


def test_relu_on_finite_inputs_and_its_tie_rule():
    x = np.array([-2.0, -0.0, 0.0, 1e-300, 3.5, -np.inf, np.inf])
    out = nm.relu(nm.Tensor(x)).data
    assert out.tobytes() == np.where(x > 0.0, x, 0.0).tobytes()  # +0.0 for -0.0
    leaf = nm.Tensor(x[:5], requires_grad=True)
    nm.backward(nm.sum_all(nm.relu(leaf) * nm.Tensor(np.full(5, 3.0))))
    assert leaf.grad.tolist() == [0.0, 0.0, 0.0, 3.0, 3.0]


def test_relu_tie_rule_on_a_long_array():
    """The (256, 128) FFN hidden, special values past the first 8 entries: +0.0 for
    both zeros, x itself above 0, bytewise, and NaN stays NaN."""
    rng = np.random.default_rng(15)
    x = rng.normal(size=256 * 128)
    specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 5e-324]
    at = rng.choice(np.arange(8, x.size), size=800, replace=False)
    x[at] = np.resize(specials, at.size)
    x = x.reshape(256, 128)
    out = nm.relu(nm.Tensor(x)).data
    nan = np.isnan(x)
    assert nan.sum() == 100 and np.isnan(out[nan]).all()
    assert out[~nan].tobytes() == np.where(x > 0.0, x, 0.0)[~nan].tobytes()


def test_layer_norm_at_the_encoder_shape_bytewise():
    """Forward bytes equal the plain expression; the VJP bytes equal its closed form."""
    rng = np.random.default_rng(16)
    x = rng.normal(size=(256, 64)) * 3.0 + 1.5
    gain, bias, g = rng.normal(size=64), rng.normal(size=64), rng.normal(size=(256, 64))
    out = nm.layer_norm(*(nm.Tensor(a, requires_grad=True) for a in (x, gain, bias)))
    mu = np.mean(x, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean((x - mu) * (x - mu), axis=1, keepdims=True) + 1e-5)
    assert out.data.tobytes() == ((x - mu) * inv * gain + bias).tobytes()
    xhat, gxhat, d = (x - mu) * inv, g * gain, 64
    want = (inv / d * (d * gxhat - gxhat.sum(axis=1, keepdims=True)
                       - xhat * (gxhat * xhat).sum(axis=1, keepdims=True)),
            (g * xhat).sum(axis=0), g.sum(axis=0))
    for got, w in zip(out._vjp(g), want):
        assert got.tobytes() == w.tobytes()


def _taped_chain(x: nm.Tensor) -> nm.Tensor:
    return nm.sum_all(softplus(nm.linear(x, x, nm.Tensor(np.ones(2)))) * 2.0)


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


def test_no_grad_on_another_thread_leaves_this_thread_taped():
    """While one thread sits inside no_grad, another thread's ops record and backward
    reaches its weights; the untaped thread's ops record nothing."""
    entered, release = threading.Event(), threading.Event()
    untaped = []

    def inside_no_grad():
        with nm.no_grad():
            entered.set()
            release.wait(timeout=30)
            untaped.append(_taped_chain(nm.Tensor(np.ones((2, 2)), requires_grad=True)))

    other = threading.Thread(target=inside_no_grad)
    other.start()
    try:
        assert entered.wait(timeout=30)
        w = nm.Tensor(np.ones((2, 3)), requires_grad=True)
        out = nm.linear(nm.Tensor(np.ones((4, 2))), w, nm.Tensor(np.zeros(3)))
        assert out.requires_grad
        nm.backward(nm.sum_all(out))
        assert_array_equal(w.grad, np.full((2, 3), 4.0))
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive() and not untaped[0].requires_grad


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


def test_a_tensor_added_to_itself_gets_twice_the_gradient():
    rng = np.random.default_rng(17)
    x = nm.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = x * 1.0
    c = rng.normal(size=(3, 4))
    nm.backward(nm.sum_all((y + y) * nm.Tensor(c)))
    assert x.grad.tobytes() == (c + c).tobytes()


@pytest.mark.parametrize("sum_first", [False, True])
def test_the_parents_of_a_sum_accumulate_separately(sum_first):
    """``u + w`` hands both parents the same upstream array; backward keeps it for one
    and copies it for the other, so that ``u * w``, reached after the sum when
    ``sum_first``, adds into two separate gradients."""
    rng = np.random.default_rng(18)
    x = nm.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    u, w = x * 2.0, x * 3.0
    c = rng.normal(size=(3, 4))
    terms = [nm.sum_all((u + w) * nm.Tensor(c)), nm.sum_all(u * w)]
    nm.backward(nm.weighted_sum(terms if sum_first else terms[::-1], [1.0, 1.0]))
    assert_allclose(x.grad, 5.0 * c + 12.0 * x.data, rtol=1e-14, atol=0)


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


@pytest.mark.parametrize("idx", [[4, 0, 2, 5], [1, 1, 2, 4, 1], list(range(6)), []])
def test_gather_rows_gradient_bitwise_equals_add_at(idx):
    """Unique indices take the row-gradient path, repeated ones ``np.add.at``; both
    give a leaf the ``np.add.at`` scatter of the upstream gradient bit for bit."""
    rng = np.random.default_rng(12)
    x = nm.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    out = nm.gather_rows(x, idx)
    g = rng.normal(size=out.data.shape)
    g[:, 0] = -0.0
    unique = len(set(idx)) == len(idx)
    assert isinstance(out._vjp(g)[0], nm.RowGrad) == unique
    nm.backward(nm._node(np.asarray(0.0), (out,), lambda _: (g,)))
    want = np.zeros((6, 3))
    np.add.at(want, np.asarray(idx, dtype=np.intp), g)
    assert x.grad.tobytes() == want.tobytes()


def _row_op(x: nm.Tensor, rows, values: np.ndarray, dense: bool) -> nm.Tensor:
    """A scalar node whose VJP gives ``x`` ``g * values`` at ``rows``: as a RowGrad or dense."""
    def vjp(g):
        if not dense:
            return (nm.RowGrad(rows, g * values),)
        full = np.zeros_like(x.data)
        full[rows] += g * values
        return (full,)

    return nm._node(np.asarray(0.0), (x,), vjp)


@pytest.mark.parametrize("dense_first", [False, True])
def test_row_gradients_accumulate_bitwise_like_dense_ones(dense_first):
    """An intermediate fed by two row-gradient ops and a dense op gives its leaf's
    gradient bitwise as when every op hands back a dense gradient, signed zeros included."""
    rng = np.random.default_rng(13)
    data = rng.normal(size=(7, 3))
    mask = nm.Tensor((rng.random((7, 3)) < 0.5) * 1.0)  # its zeros give -0.0 under weight -1
    v1, v2 = rng.normal(size=(3, 3)), rng.normal(size=(2, 3))
    v1[0], v2[1, 2] = -0.0, -0.0
    v2[0] = -v1[2]  # row 5 receives v1[2] and -v1[2]
    grads = []
    for dense in (False, True):
        x = nm.Tensor(data, requires_grad=True)
        y = x * 3.0
        ops = [_row_op(y, np.array([1, 4, 5]), v1, dense), _row_op(y, slice(5, 7), v2, dense)]
        ops.insert(0 if dense_first else 2, nm.sum_all(y * mask))
        nm.backward(nm.weighted_sum(ops, [-1.0, -1.0, -1.0]))
        grads.append(x.grad)
    assert (grads[0] == 0.0).sum() >= 3
    assert grads[0].tobytes() == grads[1].tobytes()


@pytest.mark.parametrize("row_grad", [False, True])
def test_negative_zero_upstream_lands_as_positive_zero_in_a_leaf(row_grad):
    x = nm.Tensor(np.ones((3, 2)), requires_grad=True)
    minus_zero = np.full((3, 2), -0.0)
    grad = nm.RowGrad(slice(0, 3), minus_zero) if row_grad else minus_zero
    nm.backward(nm._node(np.asarray(1.0), (x,), lambda g: (grad,)))
    assert not np.signbit(x.grad).any()
    assert_array_equal(x.grad, np.zeros((3, 2)))


def _leaf_op(x: nm.Tensor) -> nm.Tensor:
    """A scalar node whose VJP hands ``x`` a gradient of ones."""
    return nm._node(np.asarray(0.0), (x,), lambda g: (np.ones_like(x.data),))


def _raising_op(x: nm.Tensor, vjp) -> nm.Tensor:
    """A copy of ``x`` on the tape whose VJP is ``vjp``, which is meant to raise."""
    return nm._node(x.data.copy(), (x,), vjp)


class _CountingWorker:
    """Hands each job to ``worker`` and keeps its handle, and records each kernel run."""

    def __init__(self, worker):
        self.worker, self.jobs, self.runs = worker, [], []

    def submit(self, kernel, *args):
        def counted(*a):
            self.runs.append(kernel.__name__)
            return kernel(*a)

        self.jobs.append(self.worker.submit(counted, *args))
        return self.jobs[-1]


class TestBackwardWithTheWorker:
    """Leaf gradients are computed in line whatever the worker does, and a VJP
    that raises leaves no attention job behind."""

    @pytest.mark.parametrize("worker", [None, "real", "half_heads", "late"])
    @pytest.mark.parametrize("big_first", [False, True])
    def test_leaf_gradients_bitwise_with_any_worker(self, worker, big_first, monkeypatch):
        """Weights read by a linear layer over 256 rows, whose output feeds an
        encoder-sized attention, and by one over 3 rows, in either order, reach
        the same bytes across two backward calls as with no worker."""
        rng = np.random.default_rng(15)
        big, small = rng.normal(size=(256, 2)), rng.normal(size=(3, 2))
        proj_big, proj_small = rng.normal(size=(256, 3)), rng.normal(size=(3, 3))
        w0, b0 = rng.normal(size=(2, 3)), rng.normal(size=(3,))

        def grads():
            w, b = nm.Tensor(w0, requires_grad=True), nm.Tensor(b0, requires_grad=True)
            for _ in range(2):
                h = nm.linear(nm.Tensor(big), w, b)
                out, _ = nm.multihead_attention(h, h, h, 3)  # 256 x 256 logits a head
                terms = [nm.sum_all(out * nm.Tensor(proj_big)),
                         nm.sum_all(nm.linear(nm.Tensor(small), w, b) * nm.Tensor(proj_small))]
                nm.backward(nm.weighted_sum(terms if big_first else terms[::-1], [1.0, -3.0]))
            return w.grad.tobytes() + b.grad.tobytes()

        monkeypatch.setattr(nm, "_worker", None)
        alone = grads()
        fakes = {"real": real_worker, "half_heads": HalfHeadsWorker, "late": LateWorker}
        counting = _CountingWorker(fakes[worker]()) if worker else None
        monkeypatch.setattr(nm, "_worker", counting)
        assert grads() == alone
        if counting is not None:
            if worker == "half_heads":
                counting.worker.pool.shutdown()
            # the attention's forward and VJP, twice; the real worker may have run none
            assert [job.result() for job in counting.jobs] == [None] * 4

    @pytest.mark.parametrize("worker", [None, "real", "half_heads"])
    def test_an_exception_in_a_vjp_reaches_the_caller(self, worker, monkeypatch):
        """A VJP raising under an encoder-sized attention stops the walk there:
        backward raises it after the attention's job has settled, and no leaf
        under the raising node gets a gradient."""
        fakes = {"real": real_worker, "half_heads": HalfHeadsWorker}
        counting = _CountingWorker(fakes[worker]()) if worker else None
        monkeypatch.setattr(nm, "_worker", counting)
        rng = np.random.default_rng(16)
        x0, x2 = (nm.Tensor(np.ones(3), requires_grad=True) for _ in "02")
        x1 = nm.Tensor(rng.normal(size=(256, 64)), requires_grad=True)
        r = _raising_op(x1, lambda g: (1 / 0,))
        out, _ = nm.multihead_attention(r, r, r, 4)
        with pytest.raises(ZeroDivisionError):
            nm.backward(nm.weighted_sum([_leaf_op(x0), nm.sum_all(out), _leaf_op(x2)], [1.0] * 3))
        assert x1.grad is None
        assert [x.grad is None for x in (x0, x2)] == [False, True]  # the walk had passed x0
        if counting is not None:
            if worker == "half_heads":
                counting.worker.pool.shutdown()
            else:
                assert not any(job.done.locked() for job in counting.jobs)
            assert len(counting.jobs) == 2  # the attention's forward and its VJP

    @pytest.mark.parametrize("queued", [False, True])
    def test_a_vjp_raising_mid_walk_leaves_no_job_behind(self, queued, monkeypatch):
        """The attention VJP's job has run or was cancelled when a later VJP
        raises; one still queued behind another job never runs its kernel."""
        worker = _CountingWorker(real_worker())
        monkeypatch.setattr(nm, "_worker", worker)
        x = nm.Tensor(np.random.default_rng(17).normal(size=(256, 64)), requires_grad=True)

        def fail(g):
            raise RuntimeError("vjp failed")

        r = _raising_op(x, fail)
        out, _ = nm.multihead_attention(r, r, r, 4)
        gate = threading.Event()
        blocker = worker.worker.submit(gate.wait, 5) if queued else None  # holds the VJP's job
        try:
            with pytest.raises(RuntimeError, match="vjp failed"):
                nm.backward(nm.sum_all(out))
            assert len(worker.jobs) == 2
            assert not any(job.done.locked() for job in worker.jobs)
        finally:
            gate.set()
        if queued:
            assert blocker.result()
            worker.worker.submit(lambda: None).result()  # the worker has passed the VJP's job
            assert worker.jobs[1].call is None and worker.runs.count("backward") == 0
        assert x.grad is None


def test_component_loss_hands_back_no_array_of_the_stacked_size():
    rng = np.random.default_rng(14)
    rows = 12
    stacked = [rng.normal(size=(rows, 3)), rng.uniform(0.3, 0.7, (rows, 2)),
               rng.uniform(0.05, 0.2, (rows, 4)), rng.uniform(1.0, 4.0, (rows, 3)),
               rng.normal(size=(rows, 2)), rng.uniform(5.0, 40.0, (rows, 1))]
    pred = nm.Tensor(np.concatenate(stacked, axis=1), requires_grad=True)
    regression = [a[[9, 11]] + 0.01 for a in stacked[1:]]
    table = np.concatenate([*regression, corner_boxes(regression[0], regression[1])], axis=1)
    # rows 9 and 11 of the stack are positions 1 and 3 of the second block
    terms, (_, block) = block_terms(pred, [range(8), range(8, 12)], [[], [1, 3]],
                                    TargetArrays(np.array([0, 2]), table))
    loss = component_loss(terms, block)
    (sum_grad,) = loss._vjp(np.asarray(1.0))
    assert terms.data.shape == (2, 7)
    assert type(sum_grad) is nm.RowGrad and sum_grad.rows == block.row == 1
    assert sum_grad.values.shape == (7,)
    g_terms = np.zeros(terms.data.shape)
    g_terms[sum_grad.rows] = sum_grad.values
    (grad,) = terms._vjp(g_terms)
    assert type(grad) is nm.RowGrad and grad.rows.tolist() == list(range(12))
    assert grad.values.shape == (12, 15) and not grad.values[:8].any()
    assert not grad.values[[8, 10], 3:].any() and grad.values[[9, 11], 3:].all()


@pytest.mark.parametrize("op, shapes", [(nm.concat_rows, [(2, 3), (2, 4)]),
                                        (nm.concat_cols, [(2, 3), (3, 3)]),
                                        (nm.concat_rows, [(2, 3), (3,)]),
                                        (nm.concat_cols, []),
                                        (nm.concat_rows, [(3,), (2, 3)]),
                                        (nm.concat_cols, [()])])
def test_concat_rejects_mismatched_shapes_naming_the_op(op, shapes):
    with pytest.raises(nm.ShapeError, match=op.__name__):
        op([nm.Tensor(np.zeros(s)) for s in shapes])


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
    out = nm.weighted_row_smooth_l1(nm.Tensor(np.zeros((0, 4))), np.zeros((0, 4)), np.zeros(0))
    assert out.item() == 0.0


def test_weighted_row_smooth_l1_matches_manual():
    pred = np.array([[0.5, 0.0], [2.0, 0.0]])
    target = np.zeros((2, 2))
    w = np.array([1.0, 0.5])
    out = nm.weighted_row_smooth_l1(nm.Tensor(pred), target, w)
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


def _softplus_case(rng):
    x = rng.normal(size=(4, 4)) * 3.0
    p = rng.normal(size=(4, 4))
    return lambda ts: nm.sum_all(softplus(ts[0]) * nm.Tensor(p)), [x]


def _narrow_rows_case(rng):
    x = rng.normal(size=(5, 3))
    p = rng.normal(size=(3, 3))
    return lambda ts: nm.sum_all(narrow_rows(ts[0], 1, 3) * nm.Tensor(p)), [x]


REFERENCE_OP_CASES = {
    "matmul": _matmul_case,
    "softmax_rows": _softmax_rows_case,
    "softplus": _softplus_case,
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

    @pytest.mark.parametrize("seed", [7, 11])
    def test_linear_blocks_draw_what_separate_layers_draw(self, seed):
        """A layer of column blocks is its blocks' separate layers side by side,
        bitwise, and the parameter after it gets the same draw."""
        widths, biases = (3, 2, 4, 3, 2, 1), (-2.5, 0.0, -1.8, 1.5, 0.0, 20.0)
        joint = nm.ParameterStore(rng_seed=seed)
        w, b = joint.linear("head", 8, widths, bias=biases)
        after = joint.param("next", (5, 4))
        apart = nm.ParameterStore(rng_seed=seed)
        blocks = [apart.linear(f"head{i}", 8, k, bias=v)
                  for i, (k, v) in enumerate(zip(widths, biases))]
        assert joint.names() == ["head.w", "head.b", "next"]
        assert w.data.shape == (8, 15) and b.data.shape == (15,)
        assert w.data.tobytes() == np.concatenate([bw.data for bw, _ in blocks], 1).tobytes()
        assert b.data.tobytes() == np.concatenate([bb.data for _, bb in blocks]).tobytes()
        assert after.data.tobytes() == apart.param("next", (5, 4)).data.tobytes()

    def test_repeated_name_rejected(self):
        s = nm.ParameterStore(rng_seed=0)
        s.param("layer.w", (2, 2))
        for shape in [(2, 2), (3, 2)]:
            with pytest.raises(ValueError, match="'layer.w' is already in the store"):
                s.param("layer.w", shape)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        store = nm.ParameterStore(rng_seed=3)
        store.param("layer.w", (3, 4))
        store.param("layer.b", (4,), scale=0.0)
        store.param("scalar", ())
        path = tmp_path / "ckpt.npz"
        nm.save_checkpoint(store, path)
        values = nm.load_checkpoint(path)
        assert set(values) == {"layer.w", "layer.b", "scalar"}
        for name, t in store.items():
            assert_array_equal(values[name], t.data)

    def test_writes_exactly_path_as_npz_keyed_by_name(self, tmp_path):
        store = nm.ParameterStore(rng_seed=3)
        store.linear("layer", 3, 4)
        store.param("scalar", ())
        path = tmp_path / "ckpt.bin"
        nm.save_checkpoint(store, path)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]
        with np.load(path, allow_pickle=False) as archive:
            assert archive.files == ["layer.w", "layer.b", "scalar"]
            for name, t in store.items():
                assert archive[name].tobytes() == t.data.tobytes()

    @pytest.mark.parametrize("blob", [b"", b"NOPE" + b"\x00" * 16, "npy"],
                             ids=["empty", "junk", "bare npy"])
    def test_not_an_archive_rejected(self, tmp_path, blob):
        path = tmp_path / "junk.bin"
        if blob == "npy":
            with open(path, "wb") as f:
                np.save(f, np.ones(3))
        else:
            path.write_bytes(blob)
        with pytest.raises(ValueError, match=r"junk\.bin: not an \.npz archive"):
            nm.load_checkpoint(path)

    def test_restore_into(self, tmp_path):
        store = nm.ParameterStore(rng_seed=3)
        store.param("w", (2, 2))
        path = tmp_path / "c.npz"
        nm.save_checkpoint(store, path)
        other = nm.ParameterStore(rng_seed=99)
        other.param("w", (2, 2))
        nm.restore_into(other, nm.load_checkpoint(path))
        assert_array_equal(other["w"].data, store["w"].data)

    def test_restore_into_rejects_missing_and_unexpected_names(self, tmp_path):
        store = nm.ParameterStore(rng_seed=3)
        store.param("w", (2, 2))
        store.param("extra.b", (2,))
        path = tmp_path / "c.npz"
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
        path = tmp_path / "deep.npz"
        nm.save_checkpoint(Detector(DetectorConfig(layers=6, **small), seed=0).store, path)
        with pytest.raises(KeyError, match="dec4"):
            nm.restore_into(Detector(DetectorConfig(layers=4, **small), seed=0).store,
                            nm.load_checkpoint(path))

    def test_restored_detector_gives_bitwise_equal_loss_and_gradient(self, tmp_path):
        """A default detector saved, then restored into one built from another seed."""
        from vqdet.geometry import NoiseConfig
        from vqdet.model import Detector, DetectorConfig, training_loss
        from vqdet.scenes import SceneConfig, generate_scene
        from vqdet.vqd import DenoisingConfig

        scene = generate_scene(np.random.default_rng(70_000), SceneConfig(),
                               "train-0000070000", 70_000, num_objects=1)

        def loss_and_grads(det):
            noisy = det.draw_noisy_queries(scene, NoiseConfig(), np.random.default_rng((7, 1)))
            out = training_loss(det, scene, noisy, DenoisingConfig())
            nm.backward(out.total, det.store)
            return out.total.data.tobytes(), [t.grad.tobytes() for t in det.store.tensors()]

        saved = Detector(DetectorConfig(), seed=7)
        path = tmp_path / "detector.npz"
        nm.save_checkpoint(saved.store, path)
        restored = Detector(DetectorConfig(), seed=8)
        nm.restore_into(restored.store, nm.load_checkpoint(path))
        assert loss_and_grads(restored) == loss_and_grads(saved)

    def _saved(self, tmp_path):
        store = nm.ParameterStore(rng_seed=1)
        store.param("a.w", (2, 3))
        store.param("b", (2,))
        path = tmp_path / "ckpt.bin"
        nm.save_checkpoint(store, path)
        return store, path, path.read_bytes()

    def test_truncated_file_names_path(self, tmp_path):
        _, path, blob = self._saved(tmp_path)
        for cut in (3, 16, 20, len(blob) // 2):
            path.write_bytes(blob[:-cut])
            with pytest.raises(ValueError, match=r"ckpt\.bin: not an \.npz archive"):
                nm.load_checkpoint(path)

    def test_flipped_payload_byte_names_path_and_entry(self, tmp_path):
        store, path, blob = self._saved(tmp_path)
        at = blob.index(store["b"].data.tobytes()) + 3
        path.write_bytes(blob[:at] + bytes([blob[at] ^ 0x10]) + blob[at + 1:])
        with pytest.raises(ValueError, match=r"ckpt\.bin: entry 'b' is unreadable: Bad CRC-32"):
            nm.load_checkpoint(path)

    def test_flipped_shape_in_a_large_entry_names_path_and_entry(self, tmp_path):
        """An entry over zipfile's 4 KiB read size: its header is parsed before its end is read."""
        store = nm.ParameterStore(rng_seed=1)
        store.linear("layer", 64, 64)
        path = tmp_path / "ckpt.bin"
        nm.save_checkpoint(store, path)
        blob = path.read_bytes()
        at = blob.index(b"(64, 64)") + 5
        path.write_bytes(blob[:at] + b"4" + blob[at + 1:])  # shape (64, 44)
        with pytest.raises(ValueError, match=r"ckpt\.bin: entry 'layer\.w' is unreadable: "
                                             r"Bad CRC-32"):
            nm.load_checkpoint(path)

    def test_every_flipped_bit_is_rejected_or_changes_no_value(self, tmp_path):
        store, path, blob = self._saved(tmp_path)
        rejected = 0
        for at in range(len(blob)):
            for bit in (0x01, 0x80):
                path.write_bytes(blob[:at] + bytes([blob[at] ^ bit]) + blob[at + 1:])
                try:
                    values = nm.load_checkpoint(path)
                except ValueError as exc:
                    assert str(path) in str(exc)
                    rejected += 1
                    continue
                assert list(values) == store.names()
                for name, t in store.items():
                    assert values[name].tobytes() == t.data.tobytes()
        assert rejected > len(blob)

    def test_duplicated_name_rejected(self, tmp_path):
        _, path, blob = self._saved(tmp_path)
        with zipfile.ZipFile(path) as archive:
            first = archive.read("a.w.npy")
        with zipfile.ZipFile(path, "a") as archive:
            with pytest.warns(UserWarning, match="Duplicate name"):
                archive.writestr("a.w.npy", first)
        with pytest.raises(ValueError, match=r"ckpt\.bin: entry 'a\.w' repeats"):
            nm.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.ones(2, dtype=np.float32), np.arange(2),
                                       np.array(["x", "y"])],
                             ids=["float32", "int", "str"])
    def test_entry_not_float64_rejected(self, tmp_path, value):
        path = tmp_path / "ckpt.bin"
        with open(path, "wb") as f:
            np.savez(f, **{"a.w": np.zeros((2, 3)), "b": value})
        with pytest.raises(ValueError, match=r"ckpt\.bin: entry 'b' is not a float64 array"):
            nm.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_path_and_entry(self, tmp_path, bad):
        store = nm.ParameterStore(rng_seed=1)
        store.param("a.w", (2, 3))
        store.param("b", (2,))
        store["b"].data[1] = bad
        path = tmp_path / "ckpt.bin"
        nm.save_checkpoint(store, path)
        with pytest.raises(ValueError, match=r"ckpt\.bin: entry 'b' holds a value "
                                             r"that is not finite"):
            nm.load_checkpoint(path)
