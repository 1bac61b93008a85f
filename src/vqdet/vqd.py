"""Variational query generation and the denoising loss.

Noisy ground-truth boxes are embedded into a per-query latent Gaussian
(mu, log sigma^2); queries are drawn with the reparameterization trick so the
gradient of the reconstruction loss reaches the embedding through mu and
log_var but never through the noise sample. The deterministic mode short-
circuits sampling to mu and drops the KL term, which is the conventional
denoising baseline the variational scheme is compared against. The
denoising loss reads every layer's noisy blocks from the one stacked
:class:`PredictionRows` bundle of the step, one ``component_loss`` per block;
one ``weighted_sum`` adds each layer's blocks and one more takes the layers'
block means, so the sums record L + 1 tape nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math
import numpy as np

from . import numerics as nm
from .geometry import AnchorBox6D, GroundTruthObject
from .losses import LossWeights, PredictionRows, component_loss
from .numerics import Tensor

VARIATIONAL = "variational"
DETERMINISTIC = "deterministic"

DEPTH_FEATURE_SCALE = 50.0  # keeps the raw depth feature O(1)


@dataclass
class LatentDistribution:
    """Per-noisy-query Gaussian parameters, each (K, D); log_var pre-clamped."""

    mu: Tensor
    log_var: Tensor

    def __post_init__(self):
        if self.mu.data.shape != self.log_var.data.shape:
            raise nm.ShapeError(
                f"latent shapes differ: {self.mu.data.shape} vs {self.log_var.data.shape}")
        if not (np.isfinite(self.mu.data).all() and np.isfinite(self.log_var.data).all()):
            raise FloatingPointError("latent distribution has non-finite entries")


@dataclass(frozen=True)
class DenoisingConfig:
    """KL weight and the variational/deterministic mode switch."""

    beta: float = 0.1
    mode: str = VARIATIONAL

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.mode not in (VARIATIONAL, DETERMINISTIC):
            raise ValueError(f"unknown denoising mode {self.mode!r}")


class VariationalQueryGenerator:
    """Box embedding acting as the encoder of the denoising VAE.

    The noisy category goes through a learned table; the anchor box and the
    continuous noisy attributes go through a linear embedding. Both feed a
    hidden layer with two output heads for mu and log_var (clamped to
    [-10, 10]).
    """

    LOG_VAR_CLAMP = 10.0

    def __init__(self, store: nm.ParameterStore, num_classes: int, width: int):
        self.num_classes = num_classes
        self.width = width
        ce = min(width, 16)  # class embedding width
        cont = 12  # anchor (6) + dims (3) + sin/cos yaw (2) + scaled depth (1)
        self.class_table = store.param("vqg.class_table", (num_classes, ce))
        self.w_in = store.param("vqg.in.w", (ce + cont, width), scale=0.1)
        self.b_in = store.param("vqg.in.b", (width,), scale=0.0)
        self.w_mu = store.param("vqg.mu.w", (width, width), scale=0.1)
        self.b_mu = store.param("vqg.mu.b", (width,), scale=0.0)
        self.w_lv = store.param("vqg.lv.w", (width, width), scale=0.1)
        self.b_lv = store.param("vqg.lv.b", (width,), scale=0.0)

    def encode(self, anchors: Sequence[AnchorBox6D],
               noisy3d: Sequence[tuple]) -> LatentDistribution:
        """Embed K noisy boxes into a (K, D) latent distribution."""
        if len(anchors) != len(noisy3d):
            raise ValueError(f"{len(anchors)} anchors vs {len(noisy3d)} noisy tuples")
        classes = []
        cont = np.zeros((len(anchors), 12))
        for i, (a, nz) in enumerate(zip(anchors, noisy3d)):
            c, l3d, w3d, h3d, theta, d = nz
            if not 0 <= int(c) < self.num_classes:
                raise IndexError(f"noisy category {c} out of range")
            classes.append(int(c))
            cont[i] = [a.x_c, a.y_c, a.l, a.r, a.t, a.b,
                       l3d, w3d, h3d, math.sin(theta), math.cos(theta),
                       d / DEPTH_FEATURE_SCALE]
        class_rows = nm.gather_rows(self.class_table, classes)
        feats = nm.concat_cols([class_rows, nm.Tensor(cont)])
        hidden = nm.relu(nm.linear(feats, self.w_in, self.b_in))
        mu = nm.linear(hidden, self.w_mu, self.b_mu)
        log_var = nm.clamp(nm.linear(hidden, self.w_lv, self.b_lv),
                           -self.LOG_VAR_CLAMP, self.LOG_VAR_CLAMP)
        return LatentDistribution(mu=mu, log_var=log_var)


def sample_reparameterized(dist: LatentDistribution, mode: str, eps: np.ndarray) -> Tensor:
    """z = mu + exp(log_var / 2) * eps for standard normal draws ``eps``.

    Gradients flow to mu and log_var only; eps stays off the tape. In
    deterministic mode the sample is mu itself and ``eps`` is unused.
    """
    if mode == DETERMINISTIC:
        return dist.mu
    if eps.shape != dist.mu.data.shape:
        raise nm.ShapeError(f"eps shape {eps.shape} vs mu {dist.mu.data.shape}")
    return dist.mu + nm.exp(dist.log_var * 0.5) * nm.Tensor(eps)


@dataclass
class DenoisingLoss:
    total: Tensor
    reconstruction: Tensor
    kl: Tensor


def denoising_loss(pred: PredictionRows, layer_blocks: Sequence[Sequence[Sequence[int]]],
                   targets: Sequence[GroundTruthObject], dist: LatentDistribution | None,
                   cfg: DenoisingConfig, weights: LossWeights) -> DenoisingLoss:
    """Reconstruction loss over the noisy blocks plus the KL term.

    ``pred`` holds the stacked head outputs of every decoder layer, and
    ``layer_blocks[l]`` lists layer l's noisy blocks, each block its rows of
    ``pred``. Row i of a block reconstructs ``targets[i]``, so every row is
    positive. Reconstruction averages over the blocks of a layer and sums
    over layers, mirroring deep supervision. The KL term is computed once
    from the latent distribution, skipped in deterministic mode.
    """
    zero = nm.Tensor(0.0)
    layers = [blocks for blocks in layer_blocks if blocks]
    sums = [nm.weighted_sum([component_loss(pred, block, block, targets, weights)
                             for block in blocks], [1.0] * len(blocks)) for blocks in layers]
    recon = nm.weighted_sum(sums, [1.0 / len(blocks) for blocks in layers]) if layers else zero

    if cfg.mode == DETERMINISTIC or dist is None:
        kl = zero
        total = recon
    else:
        kl = nm.gaussian_kl(dist.mu, dist.log_var)
        total = recon + kl * cfg.beta
    return DenoisingLoss(total=total, reconstruction=recon, kl=kl)
