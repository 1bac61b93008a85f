"""The toy detector: feature encoder, masked group decoder, heads, and losses.

The encoder is a single pre-norm self-attention layer over the flattened
feature grid with fixed 2D sinusoidal positions. The query groups are stacked
into one (G*S, D) tensor, group-major: group g owns rows [g*S, (g+1)*S), its
N learnable queries first, then C noisy blocks of K. The decoder runs L
pre-norm layers once over all rows, each applying mask-separated
self-attention within every group, then cross-attention over the encoded
grid, then a feed-forward block, and returns every layer's rows. Shared
prediction heads decode the rows a caller reads: the training loss stacks
the L layers' rows layer-major, so layer l owns rows [l*G*S, (l+1)*G*S), and
decodes the stack in one call for deep supervision. Learnable queries
carry learned 2D reference points; noisy queries anchor at their noised box
center. Inference stacks the first group's learnable queries alone, so its
outputs depend on the weights and the scene alone, never on training-time
configuration. It records no tape (:func:`numerics.no_grad`) and decodes
only the final layer's rows.

The training loss first makes every detached decision of the step
(:func:`step_decisions`: one matching cost for every layer and group, their
Hungarian assignments, and the distillation rows, IoU weights and teacher
values), then scores the stacked head outputs under those decisions: the
detection, denoising and distillation terms all read the one stack. A
replayed step passes earlier decisions and shares the scoring, so it is the
function the tape differentiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .attention import (
    AttentionMask,
    AttentionParams,
    attention_params,
    build_denoising_mask,
    masked_multihead_self_attention,
    multihead_cross_attention,
)
from .distill import RefinerParams, forward_looking_distill, iou_weights, refiner_params
from .geometry import NoiseConfig, OrientedBox3D, apply_box_noise, backproject, iou3d
from .losses import LossWeights, PredictionRows, component_loss
from .matching import Assignment, MatcherWeights, hungarian, matching_cost
from .numerics import ParameterStore, Tensor
from .scenes import Detection, Scene
from .vqd import (
    DenoisingConfig,
    DenoisingLoss,
    LatentDistribution,
    VariationalQueryGenerator,
    denoising_loss,
    sample_reparameterized,
)


@dataclass(frozen=True)
class DetectorConfig:
    groups: int = 2
    queries_per_group: int = 16
    noisy_groups: int = 3
    width: int = 64
    heads: int = 4
    layers: int = 4
    feature_size: int = 16
    num_classes: int = 3
    lambda_dn: float = 1.0
    lambda_distill: float = 0.5
    confidence_threshold: float = 0.2
    matcher: MatcherWeights = MatcherWeights()
    loss_weights: LossWeights = LossWeights()

    def __post_init__(self):
        if self.width % self.heads != 0:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")
        if self.width % 4 != 0:
            raise ValueError("width must be a multiple of 4 for the 2D position code")
        if min(self.groups, self.queries_per_group, self.heads, self.layers,
               self.feature_size, self.num_classes) < 1 or self.noisy_groups < 0:
            raise ValueError("counts must be positive (noisy_groups may be 0)")
        if min(self.lambda_dn, self.lambda_distill) < 0:
            raise ValueError("loss weights must be nonnegative")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must lie in [0, 1]")


def sincos_positions_2d(size: int, width: int) -> np.ndarray:
    """Fixed (size*size, width) positional code; half for x, half for y."""
    quarter = width // 4
    omega = 1.0 / (100.0 ** (np.arange(quarter) / max(quarter, 1)))
    coords = np.arange(size)
    per_axis = np.concatenate([np.sin(np.outer(coords, omega)),
                               np.cos(np.outer(coords, omega))], axis=1)
    rows = np.repeat(per_axis, size, axis=0)       # v varies slowly
    cols = np.tile(per_axis, (size, 1))            # u varies quickly
    return np.concatenate([cols, rows], axis=1)


@dataclass
class NoisyDraw:
    """The step's frozen randomness: box noise and reparameterization noise."""

    anchors: list                # AnchorBox6D per noisy row, group-, then block-major
    tuples: list[tuple]          # noisy 3D tuple per noisy row, same order
    eps: np.ndarray              # (G*C*K, D) standard normals, same order
    num_objects: int


@dataclass
class DetachedDecisions:
    """Discrete and detached values frozen for replay (probes, determinism).

    The distillation lists are empty when distillation is off.
    """

    assignments: list[list[Assignment]]  # [layer][group], rows of the group
    distill_rows: list[list[int]]        # [group], rows of one layer
    distill_weights: list[np.ndarray]    # [group]
    teacher_rows: list[np.ndarray]       # [group]


@dataclass
class StepLoss:
    total: Tensor
    detection: Tensor
    denoising: DenoisingLoss
    distillation: Tensor
    decisions: DetachedDecisions
    attention_maps: np.ndarray   # last layer, (G, S, S)


class Detector:
    """Parameters plus the forward passes; all state lives in the store.

    Parameter creation order is fixed and independent of the training mode,
    so equal seeds give equal weights across mode configurations and any
    checkpoint loads into any mode.
    """

    def __init__(self, cfg: DetectorConfig, seed: int):
        self.cfg = cfg
        self.input_channels = cfg.num_classes + 3
        self.store = ParameterStore(rng_seed=seed)
        self.pos_enc = sincos_positions_2d(cfg.feature_size, cfg.width)
        self._build()

    # parameter construction -------------------------------------------------

    def _ln(self, name: str) -> tuple[Tensor, Tensor]:
        d = self.cfg.width
        return (self.store.param(f"{name}.g", (d,), init=np.ones(d)),
                self.store.param(f"{name}.b", (d,), scale=0.0))

    def _linear(self, name: str, din: int, dout: int, scale: float = 0.1,
                bias_init: float = 0.0) -> tuple[Tensor, Tensor]:
        return (self.store.param(f"{name}.w", (din, dout), scale=scale),
                self.store.param(f"{name}.b", (dout,),
                                 init=np.full(dout, bias_init)))

    def _build(self) -> None:
        cfg = self.cfg
        d = cfg.width
        hidden = 2 * d
        self.enc_proj = self._linear("enc.proj", self.input_channels, d)
        self.enc_attn = attention_params(self.store, "enc.attn", d)
        self.enc_ln1 = self._ln("enc.ln1")
        self.enc_ln2 = self._ln("enc.ln2")
        self.enc_ffn1 = self._linear("enc.ffn.1", d, hidden)
        self.enc_ffn2 = self._linear("enc.ffn.2", hidden, d)

        self.dec_self: list[AttentionParams] = []
        self.dec_cross: list[AttentionParams] = []
        self.dec_lns = []
        self.dec_ffn = []
        for i in range(cfg.layers):
            self.dec_self.append(attention_params(self.store, f"dec{i}.self", d))
            self.dec_cross.append(attention_params(self.store, f"dec{i}.cross", d))
            self.dec_lns.append((self._ln(f"dec{i}.ln1"), self._ln(f"dec{i}.ln2"),
                                 self._ln(f"dec{i}.ln3")))
            self.dec_ffn.append((self._linear(f"dec{i}.ffn.1", d, hidden),
                                 self._linear(f"dec{i}.ffn.2", hidden, d)))

        self.out_ln = self._ln("out_ln")
        self.head_cls = self._linear("head.cls", d, cfg.num_classes, bias_init=-2.5)
        self.head_center = self._linear("head.center", d, 2)
        self.head_lrtb = self._linear("head.lrtb", d, 4, bias_init=-1.8)
        self.head_size = self._linear("head.size", d, 3, bias_init=1.5)
        self.head_angle = self._linear("head.angle", d, 2)
        self.head_depth = self._linear("head.depth", d, 1, bias_init=20.0)

        gn = cfg.groups * cfg.queries_per_group
        self.query_content = self.store.param("queries.content", (gn, d), scale=0.02)
        self.query_ref = self.store.param("queries.ref", (gn, 2), scale=1.0)
        self.lref = self._linear("lref", 2, d)
        self.aref = self._linear("aref", 6, d)
        self.vqg = VariationalQueryGenerator(self.store, cfg.num_classes, d)
        self.refiner: RefinerParams = refiner_params(self.store, d)

    # forward passes ---------------------------------------------------------

    def encode_features(self, grid: np.ndarray) -> Tensor:
        """One pre-norm self-attention layer over grid tokens plus positions."""
        f = self.cfg.feature_size
        if grid.shape != (f, f, self.input_channels):
            raise ValueError(f"grid shape {grid.shape}, expected "
                             f"({f}, {f}, {self.input_channels})")
        tokens = nm.Tensor(grid.reshape(f * f, self.input_channels))
        x = nm.linear(tokens, *self.enc_proj) + nm.Tensor(self.pos_enc)
        normed = nm.layer_norm(x, *self.enc_ln1)
        x = x + multihead_cross_attention(normed, normed, self.enc_attn, self.cfg.heads)
        hidden = nm.relu(nm.linear(nm.layer_norm(x, *self.enc_ln2), *self.enc_ffn1))
        return x + nm.linear(hidden, *self.enc_ffn2)

    def draw_noisy_queries(self, scene: Scene, noise_cfg: NoiseConfig,
                           rng: np.random.Generator) -> NoisyDraw:
        """Draw every random input of the step's noisy blocks up front."""
        cfg = self.cfg
        k = len(scene.objects)
        blocks = cfg.groups * cfg.noisy_groups
        anchors, tuples = [], []
        eps = np.empty((blocks * k, cfg.width))
        for b in range(blocks):
            for obj in scene.objects:
                anchor, noisy3d = apply_box_noise(obj, noise_cfg, rng, cfg.num_classes)
                anchors.append(anchor)
                tuples.append(noisy3d)
            eps[b * k:(b + 1) * k] = rng.standard_normal((k, cfg.width))
        return NoisyDraw(anchors=anchors, tuples=tuples, eps=eps, num_objects=k)

    def learnable_queries(self, groups: int) -> tuple[Tensor, Tensor]:
        """The first ``groups`` groups' learnable queries and reference points."""
        rows = np.arange(groups * self.cfg.queries_per_group)
        ref = nm.sigmoid(nm.gather_rows(self.query_ref, rows))
        return nm.gather_rows(self.query_content, rows) + nm.linear(ref, *self.lref), ref

    def build_group_inputs(self, noisy: NoisyDraw | None, mode: str
                           ) -> tuple[Tensor, Tensor, AttentionMask,
                                      LatentDistribution | None]:
        """Stacked (G*S, D) queries, (G*S, 2) references, the mask, and latents."""
        cfg = self.cfg
        n, groups = cfg.queries_per_group, cfg.groups
        queries, refs = self.learnable_queries(groups)
        if noisy is None or cfg.noisy_groups == 0 or noisy.num_objects == 0:
            return queries, refs, build_denoising_mask(n, 0, 0), None
        k, c = noisy.num_objects, cfg.noisy_groups
        dist = self.vqg.encode(noisy.anchors, noisy.tuples)
        z = sample_reparameterized(dist, mode, noisy.eps)
        anchor_mat = np.array([[a.x_c, a.y_c, a.l, a.r, a.t, a.b] for a in noisy.anchors])
        noisy_q = z + nm.linear(nm.Tensor(anchor_mat), *self.aref)
        # learnable rows of every group, then noisy rows of every group -> group-major
        order = np.concatenate([np.arange(groups * n).reshape(groups, n),
                                groups * n + np.arange(groups * c * k).reshape(groups, c * k)],
                               axis=1).ravel()
        queries = nm.gather_rows(nm.concat_rows([queries, noisy_q]), order)
        refs = nm.gather_rows(nm.concat_rows([refs, nm.Tensor(anchor_mat[:, :2])]), order)
        return queries, refs, build_denoising_mask(n, k, c), dist

    def apply_heads(self, q: Tensor, ref: Tensor) -> PredictionRows:
        """Decode query rows with the heads every layer shares."""
        h = nm.layer_norm(q, *self.out_ln)
        return PredictionRows(
            class_logits=nm.linear(h, *self.head_cls),
            centers=ref + nm.linear(h, *self.head_center),
            lrtb=nm.softplus(nm.linear(h, *self.head_lrtb)),
            size3d=nm.softplus(nm.linear(h, *self.head_size)),
            angle=nm.linear(h, *self.head_angle),
            depth=nm.softplus(nm.linear(h, *self.head_depth)),
        )

    def decoder_forward(self, memory: Tensor, queries: Tensor, mask: AttentionMask
                        ) -> tuple[list[Tensor], list[np.ndarray]]:
        """Every layer once over all stacked rows; memory K/V once per layer.

        Returns each layer's (G*S, D) rows and its head-averaged (G, S, S)
        self-attention map; the caller applies :meth:`apply_heads` to the
        rows it reads.
        """
        cfg = self.cfg
        rows, maps = [], []
        q = queries
        for i in range(cfg.layers):
            (ln1, ln2, ln3) = self.dec_lns[i]
            ffn1, ffn2 = self.dec_ffn[i]
            sa, attn = masked_multihead_self_attention(
                nm.layer_norm(q, *ln1), mask, self.dec_self[i], cfg.heads)
            q = q + sa
            q = q + multihead_cross_attention(
                nm.layer_norm(q, *ln2), memory, self.dec_cross[i], cfg.heads)
            hidden = nm.relu(nm.linear(nm.layer_norm(q, *ln3), *ffn1))
            q = q + nm.linear(hidden, *ffn2)
            rows.append(q)
            maps.append(attn)
        return rows, maps


def decode_box_rows(pred: PredictionRows, rows: Sequence[int],
                    intrinsics) -> list[OrientedBox3D]:
    """Detached 3D boxes for the given query rows (for IoU weights / eval)."""
    centers = pred.centers.data
    sizes = pred.size3d.data
    angles = pred.angle.data
    depths = pred.depth.data
    out = []
    for r in rows:
        d = float(depths[r, 0])
        x, y, z = backproject(centers[r, 0], centers[r, 1], d, intrinsics)
        yaw = math.atan2(angles[r, 0], angles[r, 1])
        out.append(OrientedBox3D(float(x), float(y), float(z),
                                 float(sizes[r, 0]), float(sizes[r, 1]),
                                 float(sizes[r, 2]), yaw))
    return out


def step_decisions(det: Detector, stack: Tensor, pred: PredictionRows,
                   scene: Scene, s: int) -> DetachedDecisions:
    """Every detached decision of a step, from the decoder's outputs.

    ``stack`` holds every layer's rows, layer-major, and ``pred`` their head
    outputs: block b = l*G + g, layer l's group g, owns rows [b*s, (b+1)*s)
    of both, n learnable rows, then the noisy rows, where noisy row
    n + j*k + i reconstructs ground truth i. One matching cost over the
    learnable rows of every block gives each block its Hungarian assignment.
    With distillation on, each group also gets the final layer's matched
    learnable rows and all its noisy rows, their 3D IoU with their ground
    truths, and the final layer's query values there.
    """
    cfg = det.cfg
    n, gts, groups = cfg.queries_per_group, scene.objects, cfg.groups
    learnable = (np.arange(cfg.layers * groups)[:, None] * s + np.arange(n)).ravel()
    cost = matching_cost(pred.class_probs()[learnable], pred.centers.data[learnable],
                         pred.corner_boxes_array()[learnable], gts, cfg.matcher)
    assignments = [[hungarian(cost[b * n:(b + 1) * n])
                    for b in range(layer * groups, (layer + 1) * groups)]
                   for layer in range(cfg.layers)]

    rows, row_weights, teacher = [], [], []
    if cfg.lambda_distill > 0 and cfg.layers > 1 and gts:
        gt_boxes = [b for _, b in scene.gt_boxes3d()]
        final = (cfg.layers - 1) * groups * s
        noisy_rows = list(range(n, s))
        noisy_gts = [(r - n) % len(gts) for r in noisy_rows]
        for g, assign in enumerate(assignments[-1]):
            rows.append([g * s + r for r in assign.query_indices() + noisy_rows])
            boxes = decode_box_rows(pred, [final + r for r in rows[-1]], scene.intrinsics)
            row_weights.append(iou_weights(boxes, assign.gt_indices() + noisy_gts, gt_boxes))
        teacher = [stack.data[final:][r] for r in rows]
    return DetachedDecisions(assignments=assignments, distill_rows=rows,
                             distill_weights=row_weights, teacher_rows=teacher)


def training_loss(det: Detector, scene: Scene, noisy: NoisyDraw | None,
                  dn_cfg: DenoisingConfig,
                  replay: DetachedDecisions | None = None) -> StepLoss:
    """Full per-scene loss with deep supervision on every decoder layer.

    The L layers' rows are stacked once, layer-major, and the shared heads
    decode the stack in one call; every term reads that one bundle. The
    step's decisions come from :func:`step_decisions`, or from ``replay``,
    decisions of an earlier call; under pinned decisions the loss is a pure
    differentiable function of the parameters.
    """
    cfg = det.cfg
    n, gts, weights = cfg.queries_per_group, scene.objects, cfg.loss_weights
    memory = det.encode_features(scene.grid)
    queries, refs, mask, dist = det.build_group_inputs(noisy, dn_cfg.mode)
    layer_rows, maps = det.decoder_forward(memory, queries, mask)
    stack = nm.concat_rows(layer_rows)
    pred = det.apply_heads(stack, nm.concat_rows([refs] * cfg.layers))
    s = mask.size
    decisions = step_decisions(det, stack, pred, scene, s) if replay is None else replay

    # block b = l*G + g starts at row b*s of the stack
    scored = [component_loss(pred, range(b * s, b * s + n),
                             [b * s + q for q in assign.query_indices()],
                             [gts[j] for j in assign.gt_indices()], weights)
              for b, assign in enumerate(a for layer in decisions.assignments for a in layer)]
    detection = nm.weighted_sum(scored, [1.0] * len(scored))
    # noisy block j of block b: rows b*s + n + j*k onwards, one per ground truth
    k = len(gts)
    groups = cfg.groups
    blocks = [[range(b * s + lo, b * s + lo + k)
               for b in range(layer * groups, (layer + 1) * groups) for lo in range(n, s, k)]
              for layer in range(cfg.layers)] if k else []
    dn = denoising_loss(pred, blocks, gts, dist, dn_cfg, weights)
    distillation = forward_looking_distill(
        stack, cfg.layers, decisions.distill_rows, decisions.distill_weights,
        det.refiner, decisions.teacher_rows)

    total = nm.weighted_sum([detection, dn.total, distillation],
                            [1.0, cfg.lambda_dn, cfg.lambda_distill])
    return StepLoss(total=total, detection=detection, denoising=dn,
                    distillation=distillation, decisions=decisions,
                    attention_maps=maps[-1])


# Nothing calls this; bench/tracing.py still looks it up by name, so it stays
# until the benchmark records spans from inside the package.
def iou3d_pair(a: OrientedBox3D, b: OrientedBox3D) -> float:
    return iou3d(a, b)


def inference(det: Detector, scene: Scene) -> list[Detection]:
    """Detections from the first group's learnable queries, no noisy blocks.

    Queries with maximum class confidence below the configured threshold are
    discarded; there is no non-maximum suppression. Nothing is recorded on
    the tape, and the heads decode the final layer's rows only.
    """
    cfg = det.cfg
    n = cfg.queries_per_group
    with nm.no_grad():
        memory = det.encode_features(scene.grid)
        queries, refs = det.learnable_queries(1)
        rows, _ = det.decoder_forward(memory, queries, build_denoising_mask(n, 0, 0))
        pred = det.apply_heads(rows[-1], refs)
    probs = pred.class_probs()
    detections = []
    boxes = decode_box_rows(pred, range(n), scene.intrinsics)
    corners = pred.corner_boxes_array()
    for r in range(n):
        score = float(probs[r].max())
        if score < cfg.confidence_threshold:
            continue
        detections.append(Detection(
            scene_id=scene.scene_id, category=int(probs[r].argmax()),
            score=score, box3d=boxes[r], corners2d=tuple(corners[r])))
    return detections
