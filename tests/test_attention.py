import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from vqdet import numerics as nm
from vqdet.attention import (
    build_denoising_mask,
    masked_multihead_self_attention,
)
from vqdet.gradcheck import OP_TOLERANCE, check_scalar_fn

from oracles import (HalfHeadsWorker, composite_multihead_attention, narrow_rows, real_worker,
                     softmax_rows)


def _params(rng, d, requires_grad=False) -> list[tuple[nm.Tensor, nm.Tensor]]:
    """The (w, b) pairs of the q, k, v and o projections."""
    def t(shape, s=0.3):
        return nm.Tensor(rng.normal(size=shape) * s, requires_grad=requires_grad)

    return [(t((d, d)), t((d,))) for _ in "qkvo"]


class TestBuildDenoisingMask:
    def test_spec_layout_n2_k1_c2(self):
        allow = build_denoising_mask(2, 1, 2)
        expected = np.array([
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [1, 1, 0, 1],
        ], dtype=bool)
        assert_array_equal(allow, expected)

    def test_no_noisy_blocks_all_true(self):
        allow = build_denoising_mask(3, 5, 0)
        assert_array_equal(allow, np.ones((3, 3), dtype=bool))

    @given(n=st.integers(1, 6), k=st.integers(0, 4), c=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_structural_properties(self, n, k, c):
        allow = build_denoising_mask(n, k, c)
        s = n + k * c
        assert allow.shape == (s, s) and allow.dtype == bool
        assert allow.any(axis=1).all()
        assert np.diagonal(allow).all()  # every row attends to itself
        assert not allow[:n, n:].any()  # learnable rows never see noisy columns
        assert allow[:, :n].all()  # every row sees the learnable block
        for j in range(c):
            for j2 in range(c):
                blk = allow[n + j * k: n + (j + 1) * k, n + j2 * k: n + (j2 + 1) * k]
                if j == j2:
                    assert blk.all()
                else:
                    assert not blk.any()


def _relative(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestMultiheadAttentionOp:
    # (groups, rows per group, key rows, allow): masked cases have T = S
    CASES = [
        (1, 5, 7, None),
        (1, 6, 6, None),
        (1, 5, 5, build_denoising_mask(1, 2, 2)),  # row 0 sees only itself
        (2, 5, 5, build_denoising_mask(1, 2, 2)),
        (3, 5, 5, build_denoising_mask(1, 2, 2)),
        (2, 4, 4, np.eye(4, dtype=bool) | (np.random.default_rng(0).random((4, 4)) > 0.5)),
        (3, 4, 4, np.ones((4, 4), dtype=bool)),
    ]
    # the encoder's unmasked 256-row self-attention and the decoder's two masked
    # groups of 28 rows, at the model's D = 64 and 4 heads
    MODEL_CASES = [(1, 256, 256, None), (2, 28, 28, build_denoising_mask(16, 4, 3))]

    @pytest.mark.parametrize("groups,s,t,allow", CASES)
    def test_matches_per_head_composite(self, groups, s, t, allow):
        self._check_against_composite(groups, s, t, allow, d=8, heads=2)

    @pytest.mark.parametrize("groups,s,t,allow", MODEL_CASES)
    def test_matches_per_head_composite_at_model_shapes(self, groups, s, t, allow):
        self._check_against_composite(groups, s, t, allow, d=64, heads=4)

    @staticmethod
    def _check_against_composite(groups, s, t, allow, d, heads):
        """Output and all three input gradients within 1e-12 relative."""
        rng = np.random.default_rng(groups * 100 + s * 10 + t)
        arrays = [rng.normal(size=(groups * s, d)), rng.normal(size=(groups * t, d)),
                  rng.normal(size=(groups * t, d))]
        proj = rng.normal(size=(groups * s, d))
        results = []
        for fn in (lambda q, k, v: nm.multihead_attention(q, k, v, heads, allow)[0],
                   lambda q, k, v: composite_multihead_attention(q, k, v, heads, allow)):
            leaves = [nm.Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*leaves)
            nm.backward(nm.sum_all(out * nm.Tensor(proj)))
            results.append([out.data] + [x.grad for x in leaves])
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert _relative(got, want) <= 1e-12

    def test_map_is_head_average_per_group(self):
        """The op hands out a function forming the per-head weights; self-attention's
        averages them."""
        rng = np.random.default_rng(1)
        allow = build_denoising_mask(2, 1, 2)
        q, k, v = (nm.Tensor(rng.normal(size=(8, 4))) for _ in range(3))
        _, weights_of = nm.multihead_attention(q, k, v, 2, allow)
        weights = weights_of()
        assert weights.shape == (2, 2, 4, 4)
        for g in range(2):
            rows = slice(4 * g, 4 * g + 4)
            for h in range(2):
                cols = slice(2 * h, 2 * h + 2)
                want = softmax_rows(nm.Tensor(q.data[rows, cols] @ k.data[rows, cols].T
                                              / np.sqrt(2)), allow).data
                np.testing.assert_allclose(weights[g, h], want, rtol=0, atol=1e-15)
        _, full = nm.multihead_attention(q, k, nm.Tensor(rng.normal(size=(8, 4))), 2,
                                         np.ones((8, 8), dtype=bool))
        assert full().shape == (1, 2, 8, 8)

        params = _params(rng, 4)
        _, attn = masked_multihead_self_attention(q, allow, params, heads=2)
        pq, pk, pv, _ = params
        _, weights = nm.multihead_attention(nm.linear(q, *pq), nm.linear(q, *pk),
                                            nm.linear(q, *pv), 2, allow)
        assert attn().shape == (2, 4, 4)
        assert attn().tobytes() == (weights().sum(axis=1) / 2).tobytes()

    @pytest.mark.parametrize("groups,s,t,allow", MODEL_CASES)
    def test_weights_only_for_a_masked_call(self, groups, s, t, allow):
        """Masked: a fresh array on each call, exactly 0 off the mask, rows summing to
        1; unmasked: None."""
        rng = np.random.default_rng(s)
        q, k, v = (nm.Tensor(rng.normal(size=(groups * s, 64))) for _ in "qkv")
        _, weights_of = nm.multihead_attention(q, k, v, 4, allow)
        if allow is None:
            assert weights_of is None
            return
        weights = weights_of()
        assert weights.shape == (groups, 4, s, s) and weights.base is None
        assert weights_of() is not weights and weights_of().tobytes() == weights.tobytes()
        assert not weights[:, :, ~allow].any()
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-15)

    def test_gradients_are_fresh_arrays(self):
        """backward keeps a VJP's array only if no other array shares its memory."""
        rng = np.random.default_rng(3)
        leaves = [nm.Tensor(rng.normal(size=(56, 64)), requires_grad=True) for _ in "qkv"]
        out, _ = nm.multihead_attention(*leaves, 4, build_denoising_mask(16, 4, 3))
        grads = out._vjp(rng.normal(size=(56, 64)))
        assert all(gr.shape == (56, 64) and gr.base is None for gr in grads)

    def test_rejects_rows_that_are_not_whole_groups(self):
        x = nm.Tensor(np.zeros((5, 4)))
        with pytest.raises(nm.ShapeError):
            nm.multihead_attention(x, x, x, 2, np.ones((2, 2), dtype=bool))
        with pytest.raises(nm.ShapeError):
            nm.multihead_attention(x, x, x, 3)

    def test_row_without_allowed_column_raises(self):
        x = nm.Tensor(np.zeros((2, 4)))
        with pytest.raises(nm.DegenerateMaskError, match="row 1"):
            nm.multihead_attention(x, x, x, 2, np.array([[1, 0], [0, 0]], dtype=bool))


class TestMaskedAttention:
    def test_single_query(self):
        rng = np.random.default_rng(1)
        params = _params(rng, 4)
        q = nm.Tensor(rng.normal(size=(1, 4)))
        out, attn = masked_multihead_self_attention(q, np.ones((1, 1), bool), params, heads=2)
        assert out.data.shape == (1, 4)
        assert_array_equal(attn(), [[[1.0]]])

    def test_all_true_mask_matches_unmasked_softmax(self):
        rng = np.random.default_rng(2)
        d, s = 6, 5
        params = _params(rng, d)
        q = nm.Tensor(rng.normal(size=(s, d)))
        masked, _ = masked_multihead_self_attention(
            q, np.ones((s, s), bool), params, heads=2)

        projected = [nm.linear(q, w, b) for w, b in params[:3]]
        unmasked, _ = nm.multihead_attention(*projected, 2)
        assert_array_equal(masked.data, nm.linear(unmasked, *params[3]).data)
        ref = nm.linear(composite_multihead_attention(*projected, 2), *params[3])
        assert _relative(masked.data, ref.data) <= 1e-12

    def test_masked_columns_exactly_zero(self):
        rng = np.random.default_rng(3)
        allow = build_denoising_mask(2, 1, 2)
        params = _params(rng, 4)
        q = nm.Tensor(rng.normal(size=(4, 4)))
        _, maps = masked_multihead_self_attention(q, allow, params, heads=2)
        (attn,) = maps()
        assert_array_equal(attn[~allow], np.zeros((~allow).sum()))
        np.testing.assert_allclose(attn.sum(axis=1), np.ones(4), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        d, s = 4, 3
        allow = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
        proj = rng.normal(size=(s, d))
        weights = [rng.normal(size=(d, d)) * 0.4 for _ in range(4)]
        biases = [rng.normal(size=(d,)) * 0.1 for _ in range(4)]
        q0 = rng.normal(size=(s, d))

        def build(ts):
            ps = list(zip(ts[0:8:2], ts[1:8:2]))
            out, _ = masked_multihead_self_attention(ts[8], allow, ps, 2)
            return nm.sum_all(out * nm.Tensor(proj))

        err = check_scalar_fn(build, [weights[0], biases[0], weights[1], biases[1],
                                      weights[2], biases[2], weights[3], biases[3], q0])
        assert err <= OP_TOLERANCE

    def test_zero_leakage_into_noisy_inputs(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            c = int(rng.integers(1, 4))
            d, heads = 8, 2
            allow = build_denoising_mask(n, k, c)
            params = _params(rng, d)
            q = nm.Tensor(rng.normal(size=(allow.shape[0], d)), requires_grad=True)
            out, _ = masked_multihead_self_attention(q, allow, params, heads)
            learnable_out = narrow_rows(out, 0, n)
            nm.backward(nm.sum_all(learnable_out * learnable_out))
            noisy_grad = q.grad[n:]
            assert_array_equal(noisy_grad, np.zeros_like(noisy_grad))
            assert np.abs(q.grad[:n]).max() > 0


class TestSeparatedGroupAttention:
    """G groups stacked row-wise under one mask behave as G separate calls."""

    MASK = build_denoising_mask(2, 1, 2)  # S = 4

    def _stacked(self, rng, g=2, d=4):
        return nm.Tensor(rng.normal(size=(g * self.MASK.shape[0], d)))

    def test_single_group_equals_direct_call(self):
        rng = np.random.default_rng(6)
        params = _params(rng, 4)
        q = self._stacked(rng)
        out, maps = masked_multihead_self_attention(q, self.MASK, params, heads=2)
        for g in range(2):
            rows = nm.Tensor(q.data[4 * g:4 * g + 4])
            direct, direct_map = masked_multihead_self_attention(rows, self.MASK, params, 2)
            assert_array_equal(out.data[4 * g:4 * g + 4], direct.data)
            assert_array_equal(maps()[g], direct_map()[0])

    def test_cross_group_independence(self):
        rng = np.random.default_rng(7)
        params = _params(rng, 4)
        q = self._stacked(rng)
        out, _ = masked_multihead_self_attention(q, self.MASK, params, heads=2)
        moved = q.data.copy()
        moved[4:] += 1.0
        out2, _ = masked_multihead_self_attention(nm.Tensor(moved), self.MASK, params, heads=2)
        assert_array_equal(out.data[:4], out2.data[:4])
        assert (out.data[4:] != out2.data[4:]).any()

    def test_identical_groups_identical_outputs(self):
        rng = np.random.default_rng(8)
        params = _params(rng, 4)
        q = nm.Tensor(np.tile(rng.normal(size=(4, 4)), (3, 1)))
        out, maps = masked_multihead_self_attention(q, self.MASK, params, heads=2)
        for g in (1, 2):
            assert_array_equal(out.data[4 * g:4 * g + 4], out.data[:4])
            assert_array_equal(maps()[g], maps()[0])

    def test_cross_group_gradient_exactly_zero(self):
        rng = np.random.default_rng(9)
        params = _params(rng, 4)
        q = self._stacked(rng)
        q.requires_grad = True
        out, _ = masked_multihead_self_attention(q, self.MASK, params, heads=2)
        first = narrow_rows(out, 0, 4)
        nm.backward(nm.sum_all(first * first))
        assert not q.grad[4:].any()
        assert np.abs(q.grad[:4]).max() > 0


@pytest.fixture
def half_heads():
    worker = HalfHeadsWorker()
    yield worker
    worker.pool.shutdown()


def _attention_bytes(groups, s, t, allow):
    """Output, the three gradients, the weights (masked) and the untaped output, as bytes."""
    rng = np.random.default_rng(0)
    leaves = [nm.Tensor(rng.normal(size=(groups * n, 64)), requires_grad=True)
              for n in (s, t, t)]
    out, weights_of = nm.multihead_attention(*leaves, 4, allow)
    grads = out._vjp(rng.normal(size=out.data.shape))
    found = [out.data.tobytes()] + [gr.tobytes() for gr in grads]
    found.append(b"" if weights_of is None else weights_of().tobytes())
    with nm.no_grad():
        found.append(nm.multihead_attention(*leaves, 4, allow)[0].data.tobytes())
    return found


def _projected_attention_grads():
    """Gradient bytes of the leaves of an encoder-sized attention layer: its input
    and its q, k, v projections over 256 rows."""
    rng = np.random.default_rng(3)
    x = nm.Tensor(rng.normal(size=(256, 64)), requires_grad=True)
    params = [[nm.Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((64, 64), (64,))]
              for _ in "qkv"]
    out, _ = nm.multihead_attention(*(nm.linear(x, w, b) for w, b in params), 4)
    nm.backward(nm.sum_all(out * nm.Tensor(rng.normal(size=out.shape))))
    return [t.grad.tobytes() for t in [x, *(p for pair in params for p in pair)]]


class TestHeadsOnTwoThreads:
    """The encoder-sized call runs its heads one at a time on two threads, bit for bit."""

    # unmasked 256 x 256, and one masked group of 256 rows
    BIG = [(1, 256, 256, None), (1, 256, 256, build_denoising_mask(64, 16, 12))]

    @pytest.mark.parametrize("groups,s,t,allow", BIG)
    def test_bitwise_with_worker_without_and_all_heads_at_once(self, groups, s, t, allow,
                                                               monkeypatch, half_heads):
        worker = real_worker()
        monkeypatch.setattr(nm, "_worker", None)
        alone = _attention_bytes(groups, s, t, allow)
        monkeypatch.setattr(nm, "_worker", half_heads)
        assert _attention_bytes(groups, s, t, allow) == alone
        assert half_heads.calls == ["forward", "backward", "forward"]
        monkeypatch.setattr(nm, "_worker", worker)  # heads go to whichever thread asks first
        for _ in range(3):
            assert _attention_bytes(groups, s, t, allow) == alone
        monkeypatch.setattr(nm, "SPLIT_LOGITS", float("inf"))  # one slice of all heads
        assert _attention_bytes(groups, s, t, allow) == alone

    def test_worker_sees_the_encoder_call_only(self, monkeypatch, half_heads):
        """One submission per forward and one per VJP at 256 x 256; none for the
        decoder's cross-attention or masked self-attention."""
        monkeypatch.setattr(nm, "_worker", half_heads)
        for rows in (16, 56, 104):
            _attention_bytes(1, rows, 256, None)
        _attention_bytes(2, 52, 52, build_denoising_mask(16, 12, 3))
        assert half_heads.calls == []
        rng = np.random.default_rng(1)
        leaves = [nm.Tensor(rng.normal(size=(256, 64)), requires_grad=True) for _ in "qkv"]
        out, _ = nm.multihead_attention(*leaves, 4)
        assert half_heads.calls == ["forward"]
        nm.backward(nm.sum_all(out))
        assert half_heads.calls == ["forward", "backward"]

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        failed = SimpleNamespace(cancel=lambda: False, result=lambda: 1 / 0)
        monkeypatch.setattr(nm, "_worker", SimpleNamespace(submit=lambda *args: failed))
        x = nm.Tensor(np.ones((256, 64)))
        with pytest.raises(ZeroDivisionError):
            nm.multihead_attention(x, x, x, 4)

    def test_worker_that_never_starts_leaves_every_head_to_the_caller(self, monkeypatch):
        """The caller computes every head, and the cancelled jobs left in the
        worker's queue hold no kernel, so they keep no array of the call alive."""
        worker = real_worker()
        monkeypatch.setattr(nm, "_worker", None)
        alone = _attention_bytes(1, 256, 256, None)
        gate = threading.Event()
        blocker = worker.submit(gate.wait, 5)  # holds every later job in the queue
        kernels = []

        def submit(kernel, *args):
            kernels.append(weakref.ref(kernel))
            return worker.submit(kernel, *args)

        monkeypatch.setattr(nm, "_worker", SimpleNamespace(submit=submit))
        try:
            assert _attention_bytes(1, 256, 256, None) == alone
            assert len(kernels) == 3 and all(ref() is None for ref in kernels)
        finally:
            gate.set()
        assert blocker.result()

    def test_callers_on_three_threads_share_one_worker(self, monkeypatch):
        """Three callers racing for the module's worker, with the interpreter
        switching threads every microsecond: every call still computes every
        head once, and backward every gradient, bit for bit."""
        worker = real_worker()
        monkeypatch.setattr(nm, "_worker", None)
        want = _attention_bytes(1, 256, 256, None), _projected_attention_grads()
        monkeypatch.setattr(nm, "_worker", worker)
        results = []

        def caller():
            for _ in range(4):
                results.append((_attention_bytes(1, 256, 256, None),
                                _projected_attention_grads()) == want)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [True] * 12
