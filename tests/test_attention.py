import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from vqdet import numerics as nm
from vqdet.attention import (
    AttentionMask,
    AttentionParams,
    build_denoising_mask,
    masked_multihead_self_attention,
)
from vqdet.gradcheck import OP_TOLERANCE, check_scalar_fn

from oracles import composite_multihead_attention, narrow_rows, softmax_rows


def _params(rng, d, requires_grad=False) -> AttentionParams:
    def t(shape, s=0.3):
        return nm.Tensor(rng.normal(size=shape) * s, requires_grad=requires_grad)

    return AttentionParams(wq=t((d, d)), bq=t((d,)), wk=t((d, d)), bk=t((d,)),
                           wv=t((d, d)), bv=t((d,)), wo=t((d, d)), bo=t((d,)))


class TestBuildDenoisingMask:
    def test_spec_layout_n2_k1_c2(self):
        mask = build_denoising_mask(2, 1, 2)
        expected = np.array([
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [1, 1, 0, 1],
        ], dtype=bool)
        assert_array_equal(mask.allow, expected)

    def test_no_noisy_blocks_all_true(self):
        mask = build_denoising_mask(3, 5, 0)
        assert_array_equal(mask.allow, np.ones((3, 3), dtype=bool))

    @given(n=st.integers(1, 6), k=st.integers(0, 4), c=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_structural_properties(self, n, k, c):
        allow = build_denoising_mask(n, k, c).allow
        s = n + k * c
        assert allow.shape == (s, s)
        assert allow.any(axis=1).all()
        assert not allow[:n, n:].any()  # learnable rows never see noisy columns
        assert allow[:, :n].all()  # every row sees the learnable block
        for j in range(c):
            for j2 in range(c):
                blk = allow[n + j * k: n + (j + 1) * k, n + j2 * k: n + (j2 + 1) * k]
                if j == j2:
                    assert blk.all()
                else:
                    assert not blk.any()

    def test_diagonal_invariant_enforced(self):
        with pytest.raises(ValueError, match="diagonal"):
            AttentionMask(np.zeros((2, 2), dtype=bool))


def _relative(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestMultiheadAttentionOp:
    # (groups, rows per group, key rows, allow): masked cases have T = S
    CASES = [
        (1, 5, 7, None),
        (1, 6, 6, None),
        (1, 5, 5, build_denoising_mask(1, 2, 2).allow),  # row 0 sees only itself
        (2, 5, 5, build_denoising_mask(1, 2, 2).allow),
        (3, 5, 5, build_denoising_mask(1, 2, 2).allow),
        (2, 4, 4, np.eye(4, dtype=bool) | (np.random.default_rng(0).random((4, 4)) > 0.5)),
        (3, 4, 4, np.ones((4, 4), dtype=bool)),
    ]

    @pytest.mark.parametrize("groups,s,t,allow", CASES)
    def test_matches_per_head_composite(self, groups, s, t, allow):
        rng = np.random.default_rng(groups * 100 + s * 10 + t)
        d, heads = 8, 2
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
        """The op hands out read-only per-head weights; self-attention averages them."""
        rng = np.random.default_rng(1)
        allow = build_denoising_mask(2, 1, 2).allow
        q, k, v = (nm.Tensor(rng.normal(size=(8, 4))) for _ in range(3))
        _, weights = nm.multihead_attention(q, k, v, 2, allow)
        assert weights.shape == (2, 2, 4, 4) and not weights.flags.writeable
        for g in range(2):
            rows = slice(4 * g, 4 * g + 4)
            for h in range(2):
                cols = slice(2 * h, 2 * h + 2)
                want = softmax_rows(nm.Tensor(q.data[rows, cols] @ k.data[rows, cols].T
                                              / np.sqrt(2)), allow).data
                np.testing.assert_allclose(weights[g, h], want, rtol=0, atol=1e-15)
        _, full = nm.multihead_attention(q, k, nm.Tensor(rng.normal(size=(8, 4))), 2)
        assert full.shape == (1, 2, 8, 8)

        params = _params(rng, 4)
        _, attn = masked_multihead_self_attention(q, AttentionMask(allow), params, heads=2)
        _, weights = nm.multihead_attention(nm.linear(q, params.wq, params.bq),
                                            nm.linear(q, params.wk, params.bk),
                                            nm.linear(q, params.wv, params.bv), 2, allow)
        assert attn.shape == (2, 4, 4)
        assert attn.tobytes() == (weights.sum(axis=1) / 2).tobytes()

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
        out, attn = masked_multihead_self_attention(q, AttentionMask(np.ones((1, 1), bool)),
                                                    params, heads=2)
        assert out.data.shape == (1, 4)
        assert_array_equal(attn, [[[1.0]]])

    def test_all_true_mask_matches_unmasked_softmax(self):
        rng = np.random.default_rng(2)
        d, s = 6, 5
        params = _params(rng, d)
        q = nm.Tensor(rng.normal(size=(s, d)))
        masked, _ = masked_multihead_self_attention(
            q, AttentionMask(np.ones((s, s), bool)), params, heads=2)

        projected = [nm.linear(q, w, b) for w, b in ((params.wq, params.bq),
                                                    (params.wk, params.bk),
                                                    (params.wv, params.bv))]
        unmasked, _ = nm.multihead_attention(*projected, 2)
        assert_array_equal(masked.data, nm.linear(unmasked, params.wo, params.bo).data)
        ref = nm.linear(composite_multihead_attention(*projected, 2), params.wo, params.bo)
        assert _relative(masked.data, ref.data) <= 1e-12

    def test_masked_columns_exactly_zero(self):
        rng = np.random.default_rng(3)
        mask = build_denoising_mask(2, 1, 2)
        params = _params(rng, 4)
        q = nm.Tensor(rng.normal(size=(4, 4)))
        _, (attn,) = masked_multihead_self_attention(q, mask, params, heads=2)
        assert_array_equal(attn[~mask.allow], np.zeros((~mask.allow).sum()))
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
            ps = AttentionParams(wq=ts[0], bq=ts[1], wk=ts[2], bk=ts[3],
                                 wv=ts[4], bv=ts[5], wo=ts[6], bo=ts[7])
            out, _ = masked_multihead_self_attention(ts[8], AttentionMask(allow), ps, 2)
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
            mask = build_denoising_mask(n, k, c)
            params = _params(rng, d)
            q = nm.Tensor(rng.normal(size=(mask.size, d)), requires_grad=True)
            out, _ = masked_multihead_self_attention(q, mask, params, heads)
            learnable_out = narrow_rows(out, 0, n)
            nm.backward(nm.sum_all(learnable_out * learnable_out))
            noisy_grad = q.grad[n:]
            assert_array_equal(noisy_grad, np.zeros_like(noisy_grad))
            assert np.abs(q.grad[:n]).max() > 0


class TestSeparatedGroupAttention:
    """G groups stacked row-wise under one mask behave as G separate calls."""

    MASK = build_denoising_mask(2, 1, 2)  # S = 4

    def _stacked(self, rng, g=2, d=4):
        return nm.Tensor(rng.normal(size=(g * self.MASK.size, d)))

    def test_single_group_equals_direct_call(self):
        rng = np.random.default_rng(6)
        params = _params(rng, 4)
        q = self._stacked(rng)
        out, maps = masked_multihead_self_attention(q, self.MASK, params, heads=2)
        for g in range(2):
            rows = nm.Tensor(q.data[4 * g:4 * g + 4])
            direct, direct_map = masked_multihead_self_attention(rows, self.MASK, params, 2)
            assert_array_equal(out.data[4 * g:4 * g + 4], direct.data)
            assert_array_equal(maps[g], direct_map[0])

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
            assert_array_equal(maps[g], maps[0])

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
