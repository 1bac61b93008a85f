"""Variational query generation and the denoising loss.

Noisy ground-truth boxes, one :class:`TargetArrays` bundle like the
targets, are embedded into a per-query latent Gaussian (mu, log sigma^2);
queries are drawn with the reparameterization trick so the gradient of the
reconstruction loss reaches the embedding through mu and log_var but never
through the noise sample. Only :meth:`VariationalQueryGenerator.encode`
reads the denoising mode. In deterministic mode, the DN-DETR baseline the
variational scheme is compared against, it gives latents without a
log-variance, so sampling returns mu and the loss drops the KL term.
The denoising loss reads every layer's noisy blocks from the step's one
stacked prediction tensor (the columns of :mod:`losses`), one
``component_loss`` per block, each one tape node; every call reads the
ground truths' one :class:`TargetArrays` as it is. One
``weighted_sum`` adds each layer's blocks, one more takes the layers' block
means, and with a log-variance a last one adds the KL term with weight
:data:`BETA`, so the sums record L + 2 tape nodes (L + 1 without KL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .losses import TargetArrays, component_loss
from .numerics import Tensor

VARIATIONAL = "variational"
DETERMINISTIC = "deterministic"

DEPTH_FEATURE_SCALE = 50.0  # keeps the raw depth feature O(1)
BETA = 0.1  # weight of the KL term in the variational denoising loss


@dataclass
class LatentDistribution:
    """Per-noisy-query Gaussian parameters, each (K, D); log_var pre-clamped.

    ``log_var`` is None in the deterministic arm, which samples mu and has no KL term. A
    non-finite entry is not checked here: the step's matching cost or its
    loss is, and the error names the first non-finite tensor.
    """

    mu: Tensor
    log_var: Tensor | None


@dataclass(frozen=True)
class DenoisingConfig:
    """The variational/deterministic mode switch; the KL weight is :data:`BETA`."""

    mode: str = VARIATIONAL

    def __post_init__(self):
        if self.mode not in (VARIATIONAL, DETERMINISTIC):
            raise ValueError(f"unknown denoising mode {self.mode!r}")


class VariationalQueryGenerator:
    """Box embedding acting as the encoder of the denoising VAE.

    The noisy category goes through a learned table; the anchor box and the
    continuous noisy attributes go through a linear embedding. Both feed a
    hidden layer with two output heads for mu and log_var (clamped to
    [-10, 10]); deterministic mode runs the mu head alone.
    """

    LOG_VAR_CLAMP = 10.0

    def __init__(self, store: nm.ParameterStore, num_classes: int, width: int):
        self.num_classes = num_classes
        self.width = width
        ce = min(width, 16)  # class embedding width
        cont = 12  # anchor (6) + dims (3) + sin/cos yaw (2) + scaled depth (1)
        self.class_table = store.param("vqg.class_table", (num_classes, ce))
        self.embed = store.linear("vqg.in", ce + cont, width)
        self.mu_head = store.linear("vqg.mu", width, width)
        self.log_var_head = store.linear("vqg.lv", width, width)

    def encode(self, boxes: TargetArrays, mode: str) -> LatentDistribution:
        """Embed K noisy boxes into a (K, D) latent distribution.

        The continuous features are the boxes' first 11 table columns (2D
        box, dimensions, sin and cos of the yaw) and their depth over
        :data:`DEPTH_FEATURE_SCALE`. In deterministic mode nothing reads the
        log-variance, so it is not computed.
        """
        classes = boxes.classes
        bad = classes[(classes < 0) | (classes >= self.num_classes)]
        if bad.size:
            raise IndexError(f"noisy category {bad[0]} out of range")
        cont = np.concatenate([boxes.table[:, :11],
                               boxes.table[:, 11:12] / DEPTH_FEATURE_SCALE], axis=1)
        class_rows = nm.gather_rows(self.class_table, classes)
        feats = nm.concat_cols([class_rows, nm.Tensor(cont)])
        hidden = nm.relu(nm.linear(feats, *self.embed))
        mu = nm.linear(hidden, *self.mu_head)
        if mode == DETERMINISTIC:
            return LatentDistribution(mu=mu, log_var=None)
        log_var = nm.clamp(nm.linear(hidden, *self.log_var_head),
                           -self.LOG_VAR_CLAMP, self.LOG_VAR_CLAMP)
        return LatentDistribution(mu=mu, log_var=log_var)


def sample_reparameterized(dist: LatentDistribution, eps: np.ndarray) -> Tensor:
    """z = mu + exp(log_var / 2) * eps for standard normal draws ``eps``.

    Gradients flow to mu and log_var only; eps stays off the tape. Without a
    log-variance the sample is mu itself and ``eps`` is unused.
    """
    if dist.log_var is None:
        return dist.mu
    if eps.shape != dist.mu.data.shape:
        raise nm.ShapeError(f"eps shape {eps.shape} vs mu {dist.mu.data.shape}")
    return dist.mu + nm.exp(dist.log_var * 0.5) * nm.Tensor(eps)


@dataclass
class DenoisingLoss:
    total: Tensor
    reconstruction: Tensor
    kl: Tensor


def denoising_loss(pred: Tensor, layer_blocks: Sequence[Sequence[Sequence[int]]],
                   targets: TargetArrays, dist: LatentDistribution) -> DenoisingLoss:
    """Reconstruction loss over the noisy blocks plus :data:`BETA` times the KL term.

    ``pred`` holds the stacked prediction rows of every decoder layer, and
    ``layer_blocks[l]`` lists layer l's noisy blocks, each block its rows of
    ``pred``. Row i of a block reconstructs target i of ``targets``, the
    step's one :class:`TargetArrays` bundle, which every block's call reads
    as it is; every row is positive. Reconstruction averages over the blocks
    of a layer and sums over layers, mirroring deep supervision. The KL term is computed once
    from ``dist``, the latents of the step's noisy rows (0 rows without any, giving a KL of
    0), and skipped when ``dist`` has no log-variance, the deterministic arm.
    """
    zero = nm.Tensor(0.0)
    layers = [blocks for blocks in layer_blocks if blocks]
    sums = [nm.weighted_sum([component_loss(pred, block, range(len(block)), targets)
                             for block in blocks], [1.0] * len(blocks)) for blocks in layers]
    recon = nm.weighted_sum(sums, [1.0 / len(blocks) for blocks in layers]) if layers else zero

    if dist.log_var is None:
        return DenoisingLoss(total=recon, reconstruction=recon, kl=zero)
    kl = nm.gaussian_kl(dist.mu, dist.log_var)
    total = nm.weighted_sum([recon, kl], [1.0, BETA])
    return DenoisingLoss(total=total, reconstruction=recon, kl=kl)
