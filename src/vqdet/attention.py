"""Interaction masks and masked multi-head attention over stacked query groups.

One group's block stacks N learnable queries followed by C noisy blocks of K
queries each (S = N + K*C rows). The G groups are stacked group-major into
one (G*S, D) tensor, so group g owns rows [g*S, (g+1)*S). The (S, S)
interaction mask keeps learnable rows blind to every noisy column (no
ground-truth leakage into matched queries), lets noisy rows read the
learnable block and their own block, and separates noisy blocks from each
other. Self-attention applies the mask within each group and computes no
logit across groups, so groups share weights but never activations.

An attention block's parameters are four ``(w, b)`` pairs, the query, key,
value and output projections in that order, each declared by
:meth:`numerics.ParameterStore.linear`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import numerics as nm
from .numerics import Tensor


def build_denoising_mask(n: int, k: int, c: int) -> np.ndarray:
    """Interaction rule for one group of N learnable + C*K noisy queries.

    Returns the (S, S) bool allow matrix: ``allow[i, j]`` lets row i attend
    to column j. Learnable rows attend only to learnable columns; rows of
    noisy block j attend to the learnable columns and to block j itself.
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
    return allow


def masked_multihead_self_attention(q: Tensor, allow: np.ndarray,
                                    params: Sequence[tuple[Tensor, Tensor]], heads: int
                                    ) -> tuple[Tensor, Callable[[], np.ndarray]]:
    """Self-attention of G stacked groups, each restricted to ``allow``.

    ``q`` holds G groups of S rows, group-major, under the (S, S) bool
    matrix ``allow`` of :func:`build_denoising_mask`; the same weights
    apply to every group and no row sees another group. Returns the projected
    output and a function forming the head-averaged (G, S, S) attention map
    off the tape, exactly zero at disallowed positions.
    """
    pq, pk, pv, po = params
    out, weights = nm.multihead_attention(nm.linear(q, *pq), nm.linear(q, *pk),
                                          nm.linear(q, *pv), heads, allow)
    return nm.linear(out, *po), lambda: weights().sum(axis=1) / heads


def multihead_cross_attention(q: Tensor, memory: Tensor,
                              params: Sequence[tuple[Tensor, Tensor]], heads: int) -> Tensor:
    """Unmasked attention of query rows over a separate memory sequence."""
    pq, pk, pv, po = params
    out, _ = nm.multihead_attention(nm.linear(q, *pq), nm.linear(memory, *pk),
                                    nm.linear(memory, *pv), heads)
    return nm.linear(out, *po)
