"""Interaction masks and masked multi-head attention over stacked query groups.

One group's block stacks N learnable queries followed by C noisy blocks of K
queries each (S = N + K*C rows). The G groups are stacked group-major into
one (G*S, D) tensor, so group g owns rows [g*S, (g+1)*S). The (S, S)
interaction mask keeps learnable rows blind to every noisy column (no
ground-truth leakage into matched queries), lets noisy rows read the
learnable block and their own block, and separates noisy blocks from each
other. Self-attention applies the mask within each group and computes no
logit across groups, so groups share weights but never activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor


class AttentionMask:
    """Boolean allow matrix; ``allow[i, j]`` permits row i to attend to j."""

    def __init__(self, allow: np.ndarray):
        allow = np.asarray(allow, dtype=bool)
        if allow.ndim != 2 or allow.shape[0] != allow.shape[1]:
            raise ValueError(f"attention mask must be square, got {allow.shape}")
        if allow.size and not np.diagonal(allow).all():
            raise ValueError("attention mask diagonal must be all true")
        self.allow = allow

    @property
    def size(self) -> int:
        return self.allow.shape[0]


def build_denoising_mask(n: int, k: int, c: int) -> AttentionMask:
    """Interaction rule for one group of N learnable + C*K noisy queries.

    Learnable rows attend only to learnable columns; rows of noisy block j
    attend to the learnable columns and to block j itself.
    """
    if n < 1 or k < 0 or c < 0:
        raise ValueError(f"invalid counts n={n}, k={k}, c={c}")
    s = n + k * c
    allow = np.zeros((s, s), dtype=bool)
    allow[:, :n] = True  # everyone reads the learnable block ...
    allow[:n, n:] = False  # ... but learnable rows read nothing else
    for j in range(c):
        lo = n + j * k
        allow[lo:lo + k, lo:lo + k] = True
    return AttentionMask(allow)


@dataclass
class AttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def attention_params(store: nm.ParameterStore, prefix: str, d: int,
                     scale: float = 0.1) -> AttentionParams:
    def w(name):
        return store.param(f"{prefix}.{name}.w", (d, d), scale=scale)

    def b(name):
        return store.param(f"{prefix}.{name}.b", (d,), scale=0.0)

    return AttentionParams(wq=w("q"), bq=b("q"), wk=w("k"), bk=b("k"),
                           wv=w("v"), bv=b("v"), wo=w("o"), bo=b("o"))


def masked_multihead_self_attention(q: Tensor, mask: AttentionMask,
                                    params: AttentionParams, heads: int
                                    ) -> tuple[Tensor, np.ndarray]:
    """Self-attention of G stacked groups, each restricted to ``mask``.

    ``q`` holds G groups of ``mask.size`` rows, group-major; the same weights
    apply to every group and no row sees another group. Returns the projected
    output and the head-averaged (G, S, S) attention map, off the tape.
    Disallowed positions are exactly zero in every head.
    """
    out, attn = nm.multihead_attention(nm.linear(q, params.wq, params.bq),
                                       nm.linear(q, params.wk, params.bk),
                                       nm.linear(q, params.wv, params.bv),
                                       heads, mask.allow)
    return nm.linear(out, params.wo, params.bo), attn


def multihead_cross_attention(q: Tensor, memory: Tensor,
                              params: AttentionParams, heads: int) -> Tensor:
    """Unmasked attention of query rows over a separate memory sequence."""
    out, _ = nm.multihead_attention(nm.linear(q, params.wq, params.bq),
                                    nm.linear(memory, params.wk, params.bk),
                                    nm.linear(memory, params.wv, params.bv), heads)
    return nm.linear(out, params.wo, params.bo)
