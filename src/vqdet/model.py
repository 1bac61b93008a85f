"""The toy detector: feature encoder, masked group decoder, heads, and losses.

The encoder is a single pre-norm self-attention layer over the flattened
feature grid with fixed 2D sinusoidal positions. The query groups are stacked
into one (G*S, D) tensor, group-major: group g owns rows [g*S, (g+1)*S), its
N learnable queries first, then C noisy blocks of K. The decoder runs L
pre-norm layers once over all rows, each applying mask-separated
self-attention within every group, then cross-attention over the encoded
grid, then a feed-forward block, and returns every layer's rows. Shared
prediction heads, one affine layer and one :func:`losses.decode_heads` op,
decode the rows a caller reads into one (rows, C + 12) tensor in the column
layout of :mod:`losses`: the training loss stacks the L layers' rows
layer-major, so layer l owns rows [l*G*S, (l+1)*G*S), and decodes the stack
in one call for deep supervision, one layer's G*S reference points serving
every layer. Learnable queries carry learned 2D reference points, and a
training step reads every group's parameter rows as they are. The noisy
boxes are one :class:`TargetArrays` bundle like the targets, drawn for all
rows at once; a noisy query anchors at its box, the first six table columns,
with its center as reference point.
Inference takes the first group's rows of the learnable queries alone, so
its outputs depend on the weights and the scene alone, never on
training-time configuration. It records no tape (:func:`numerics.no_grad`),
decodes only the final layer's rows and forms no attention map.

The training loss first makes every detached decision of the step
(:func:`step_decisions`: one matching cost for every layer and group, their
Hungarian assignments, and the distillation rows, IoU weights and teacher
values), then scores the prediction tensor under those decisions: one row
kernel, :func:`losses.block_terms`, sums the seven terms of each detection
and noisy block, and one ``component_loss`` node per block weighs its sums,
which the detection term and :func:`vqd.denoising_loss` add. Distillation
reads the stack of decoder rows. A replayed step passes earlier decisions and
shares the scoring, so it is the function the tape differentiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import numerics as nm
from .attention import (
    build_denoising_mask,
    masked_multihead_self_attention,
    multihead_cross_attention,
)
from .distill import forward_looking_distill, iou_weights
from .geometry import (NoiseConfig, OrientedBox3D, backproject, check_setting, corrupt_boxes,
                       iou3d)
from .losses import (ANGLE, BOX_WIDTHS, CENTER, DEPTH, LRTB, SIZE3D, TargetArrays, block_terms,
                     class_probs, component_loss, corner_boxes, decode_heads)
from .matching import Assignment, hungarian, matching_cost
from .numerics import ParameterStore, Tensor
from .scenes import MAX_COUNT, MAX_FEATURE_SIZE, Detection, Scene, grid_channels
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
    lambda_distill: float = 0.5
    confidence_threshold: float = 0.2

    def __post_init__(self):
        for f in fields(self):  # the counts; only noisy_groups may be 0
            if f.type == "int":
                lo = 0 if f.name == "noisy_groups" else 1
                hi = MAX_FEATURE_SIZE if f.name == "feature_size" else MAX_COUNT
                check_setting(f.name, getattr(self, f.name), lo, hi, integer=True)
        check_setting("lambda_distill", self.lambda_distill, 0)
        check_setting("confidence_threshold", self.confidence_threshold, 0, 1, closed=True)
        if self.width % self.heads != 0:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")
        if self.width % 4 != 0:
            raise ValueError(f"width {self.width} must be a multiple of 4 for the 2D position code")


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
    """The step's frozen randomness: box noise and reparameterization noise.

    ``boxes`` holds one noisy copy of a ground truth per noisy row, group-,
    then block-, then object-major, in the row form of the targets. The
    n = G*C*K rows come from five generator calls whatever K is: the four
    of :func:`geometry.corrupt_boxes` (three with one class), then
    ``standard_normal((n, D))`` for ``eps``.
    """

    boxes: TargetArrays          # G*C*K noisy boxes
    eps: np.ndarray              # (G*C*K, D) standard normals, same order


@dataclass
class DetachedDecisions:
    """Discrete and detached values frozen for replay (probes, determinism).

    The distillation arrays hold R rows over every group, group-major, and
    are empty when distillation is off.
    """

    assignments: list[list[Assignment]]  # [layer][group], rows of the group
    distill_rows: np.ndarray             # (R,) rows of one layer
    distill_weights: np.ndarray          # (R,) IoU weights divided by R
    teacher_rows: np.ndarray             # (R, D) final-layer values there


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
        self.input_channels = grid_channels(cfg.num_classes)
        self.store = ParameterStore(rng_seed=seed)
        self.pos_enc = sincos_positions_2d(cfg.feature_size, cfg.width)
        self._build()

    # parameter construction -------------------------------------------------

    def _ln(self, name: str) -> tuple[Tensor, Tensor]:
        d = self.cfg.width
        return (self.store.param(f"{name}.g", (d,), init=np.ones(d)),
                self.store.param(f"{name}.b", (d,), scale=0.0))

    def _build(self) -> None:
        cfg = self.cfg
        store = self.store
        d = cfg.width
        hidden = 2 * d

        def attention(prefix: str) -> list[tuple[Tensor, Tensor]]:
            return [store.linear(f"{prefix}.{p}", d, d) for p in "qkvo"]

        self.enc_proj = store.linear("enc.proj", self.input_channels, d)
        self.enc_attn = attention("enc.attn")
        self.enc_ln1 = self._ln("enc.ln1")
        self.enc_ln2 = self._ln("enc.ln2")
        self.enc_ffn1 = store.linear("enc.ffn.1", d, hidden)
        self.enc_ffn2 = store.linear("enc.ffn.2", hidden, d)

        self.dec_self = []
        self.dec_cross = []
        self.dec_lns = []
        self.dec_ffn = []
        for i in range(cfg.layers):
            self.dec_self.append(attention(f"dec{i}.self"))
            self.dec_cross.append(attention(f"dec{i}.cross"))
            self.dec_lns.append((self._ln(f"dec{i}.ln1"), self._ln(f"dec{i}.ln2"),
                                 self._ln(f"dec{i}.ln3")))
            self.dec_ffn.append((store.linear(f"dec{i}.ffn.1", d, hidden),
                                 store.linear(f"dec{i}.ffn.2", hidden, d)))

        self.out_ln = self._ln("out_ln")
        # class logits, then the box columns of losses: center, lrtb, size3d, angle, depth
        self.head = store.linear("head", d, (cfg.num_classes, *BOX_WIDTHS),
                                 bias=(-2.5, 0.0, -1.8, 1.5, 0.0, 20.0))

        gn = cfg.groups * cfg.queries_per_group
        self.query_content = store.param("queries.content", (gn, d), scale=0.02)
        self.query_ref = store.param("queries.ref", (gn, 2), scale=1.0)
        self.lref = store.linear("lref", 2, d)
        self.aref = store.linear("aref", 6, d)
        self.vqg = VariationalQueryGenerator(store, cfg.num_classes, d)
        self.refiner = [store.linear(f"refiner.{i}", d, d) for i in (1, 2)]

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
        """Draw every random input of the step's noisy blocks up front, in the order
        of :class:`NoisyDraw`."""
        cfg = self.cfg
        classes, fields = scene.fields
        # one copy of every ground truth per noisy block, block-major
        blocks = cfg.groups * cfg.noisy_groups
        classes, fields = corrupt_boxes(classes[None].repeat(blocks, 0).ravel(),
                                        fields[None].repeat(blocks, 0).reshape(-1, 11),
                                        noise_cfg, rng, cfg.num_classes)
        eps = rng.standard_normal((len(classes), cfg.width))
        return NoisyDraw(boxes=TargetArrays.from_fields(classes, fields), eps=eps)

    def learnable_queries(self) -> tuple[Tensor, Tensor]:
        """Every group's learnable queries and reference points, group-major."""
        ref = nm.sigmoid(self.query_ref)
        return self.query_content + nm.linear(ref, *self.lref), ref

    def build_group_inputs(self, noisy: NoisyDraw, mode: str
                           ) -> tuple[Tensor, Tensor, np.ndarray, LatentDistribution]:
        """Stacked (G*S, D) queries, (G*S, 2) references, the (S, S) mask, latents.

        The latents hold one row per noisy row, G*C*K in all: 0 rows without
        noisy groups or objects, where S = N. ``mode`` goes to the generator's
        ``encode``, which alone decides whether they carry a log-variance.
        """
        cfg = self.cfg
        n, groups, c = cfg.queries_per_group, cfg.groups, cfg.noisy_groups
        k = len(noisy.boxes) // max(1, groups * c)  # rows of a noisy block
        queries, refs = self.learnable_queries()
        dist = self.vqg.encode(noisy.boxes, mode)
        z = sample_reparameterized(dist, noisy.eps)
        table = noisy.boxes.table
        noisy_q = z + nm.linear(nm.Tensor(table[:, :6]), *self.aref)
        # learnable rows of every group, then noisy rows of every group -> group-major
        order = np.concatenate([np.arange(groups * n).reshape(groups, n),
                                groups * n + np.arange(groups * c * k).reshape(groups, c * k)],
                               axis=1).ravel()
        queries = nm.gather_rows(nm.concat_rows([queries, noisy_q]), order)
        refs = nm.gather_rows(nm.concat_rows([refs, nm.Tensor(table[:, :2])]), order)
        return queries, refs, build_denoising_mask(n, k, c), dist

    def apply_heads(self, q: Tensor, ref: Tensor) -> Tensor:
        """Prediction rows of one or more layers' rows ``q``, layer-major, from the shared
        heads; ``ref`` holds the reference points of one layer's rows."""
        return decode_heads(nm.linear(nm.layer_norm(q, *self.out_ln), *self.head), ref)

    def decoder_forward(self, memory: Tensor, queries: Tensor, allow: np.ndarray
                        ) -> tuple[list[Tensor], Callable[[], np.ndarray]]:
        """Every layer once over all stacked rows; memory K/V once per layer.

        Self-attention within each group obeys the (S, S) mask ``allow``.
        Returns each layer's (G*S, D) rows and a function that forms the
        final layer's head-averaged (G, S, S) self-attention map; the caller
        applies :meth:`apply_heads` to the rows it reads.
        """
        cfg = self.cfg
        rows, q = [], queries
        for i in range(cfg.layers):
            (ln1, ln2, ln3) = self.dec_lns[i]
            ffn1, ffn2 = self.dec_ffn[i]
            sa, final_map = masked_multihead_self_attention(
                nm.layer_norm(q, *ln1), allow, self.dec_self[i], cfg.heads)
            q = q + sa
            q = q + multihead_cross_attention(
                nm.layer_norm(q, *ln2), memory, self.dec_cross[i], cfg.heads)
            hidden = nm.relu(nm.linear(nm.layer_norm(q, *ln3), *ffn1))
            q = q + nm.linear(hidden, *ffn2)
            rows.append(q)
        return rows, final_map


def decode_box_rows(pred: np.ndarray, rows: Sequence[int]) -> list[OrientedBox3D]:
    """Detached 3D boxes of plain floats for the given prediction rows (IoU weights, eval)."""
    box = pred[list(rows)]
    u, v = box[:, CENTER].T
    xyz = np.column_stack(backproject(u, v, box[:, DEPTH].ravel()))
    return [OrientedBox3D(*center, *size, math.atan2(sin, cos))
            for center, size, (sin, cos) in zip(xyz.tolist(), box[:, SIZE3D].tolist(),
                                                box[:, ANGLE].tolist())]


def step_decisions(det: Detector, stack: Tensor, pred: Tensor,
                   scene: Scene, targets: TargetArrays, s: int) -> DetachedDecisions:
    """Every detached decision of a step, from the decoder's outputs.

    ``stack`` holds every layer's rows, layer-major, and ``pred`` their
    prediction rows: block b = l*G + g, layer l's group g, owns rows [b*s,
    (b+1)*s) of both, n learnable rows, then the noisy rows, where noisy row
    n + j*k + i reconstructs ground truth i. One matching cost over the
    learnable rows of every block gives each block its Hungarian assignment;
    a non-finite cost raises FloatingPointError naming the first non-finite
    tensor behind it.
    With distillation on, the final layer's matched learnable rows and all
    noisy rows of every group are decoded once: their 3D IoU with their
    ground truths, divided by the row count R, weights them, and the final
    layer's query values there are the teacher. ``targets`` are the arrays
    of ``scene.objects``.
    """
    cfg = det.cfg
    n, gts, groups = cfg.queries_per_group, scene.objects, cfg.groups
    learnable = (np.arange(cfg.layers * groups)[:, None] * s + np.arange(n)).ravel()
    learned = pred.data[learnable]
    cost = matching_cost(class_probs(learned), learned[:, CENTER], learned[:, LRTB], targets)
    if not np.isfinite(cost).all():
        culprit = nm.first_non_finite([pred], det.store)
        raise FloatingPointError(f"step_decisions: matching cost is not finite; {culprit}")
    assignments = [[hungarian(cost[b * n:(b + 1) * n])
                    for b in range(layer * groups, (layer + 1) * groups)]
                   for layer in range(cfg.layers)]

    final = (cfg.layers - 1) * groups * s
    rows, row_gts, weights = [], [], np.zeros(0)
    if cfg.lambda_distill > 0 and cfg.layers > 1 and gts:
        noisy_rows = list(range(n, s))
        noisy_gts = [(r - n) % len(gts) for r in noisy_rows]
        for g, assign in enumerate(assignments[-1]):
            rows += [g * s + r for r in assign.query_indices() + noisy_rows]
            row_gts += assign.gt_indices() + noisy_gts
        boxes = decode_box_rows(pred.data, [final + r for r in rows])
        weights = iou_weights(boxes, row_gts, [b for _, b in scene.gt_boxes3d()]) / len(rows)
    rows = np.array(rows, dtype=int)
    return DetachedDecisions(assignments=assignments, distill_rows=rows,
                             distill_weights=weights, teacher_rows=stack.data[final:][rows])


def training_loss(det: Detector, scene: Scene, noisy: NoisyDraw,
                  dn_cfg: DenoisingConfig,
                  replay: DetachedDecisions | None = None) -> StepLoss:
    """Full per-scene loss with deep supervision on every decoder layer.

    The L layers' rows are stacked once, layer-major, and the shared heads
    decode the stack in one call; the detection and denoising terms read the
    prediction tensor, distillation the stack, and the matcher and the losses
    the scene's :attr:`Scene.targets`, built once per scene. The step's decisions
    come from :func:`step_decisions`, or from ``replay``, decisions of an
    earlier call; under pinned decisions the loss is a pure differentiable
    function of the parameters. ``noisy`` must be a draw for ``scene``: one
    with other than G*C*K rows for its K objects raises ValueError.
    """
    cfg = det.cfg
    n, gts = cfg.queries_per_group, scene.objects
    want = cfg.groups * cfg.noisy_groups * len(gts)
    if len(noisy.boxes) != want:
        raise ValueError(f"training_loss: the noisy draw has {len(noisy.boxes)} rows, but "
                         f"groups * noisy_groups * objects is {want} for this scene")
    memory = det.encode_features(scene.grid)
    queries, refs, allow, dist = det.build_group_inputs(noisy, dn_cfg.mode)
    layer_rows, final_map = det.decoder_forward(memory, queries, allow)
    stack = nm.concat_rows(layer_rows)
    pred = det.apply_heads(stack, refs)
    s = allow.shape[0]
    targets = scene.targets
    decisions = (step_decisions(det, stack, pred, scene, targets, s) if replay is None
                 else replay)

    # block b = l*G + g starts at row b*s of the stack; its noisy block j at row
    # b*s + n + j*k, whose row i reconstructs ground truth i
    assigned = [a for layer in decisions.assignments for a in layer]
    k, per_layer = len(gts), cfg.groups * cfg.noisy_groups
    noisy_blocks = [range(b * s + lo, b * s + lo + k)
                    for b in range(len(assigned)) for lo in range(n, s, k)] if k else []
    terms, blocks = block_terms(
        pred, [range(b * s, b * s + n) for b in range(len(assigned))] + noisy_blocks,
        [a.query_indices() for a in assigned] + [range(k)] * len(noisy_blocks),
        targets.take([j for a in assigned for j in a.gt_indices()]
                     + list(range(k)) * len(noisy_blocks)))
    scored = [component_loss(terms, block) for block in blocks[:len(assigned)]]
    detection = nm.weighted_sum(scored, [1.0] * len(scored))
    noisy_scored = blocks[len(assigned):]
    dn = denoising_loss(terms, [noisy_scored[layer * per_layer:(layer + 1) * per_layer]
                                for layer in range(cfg.layers)], dist)
    distillation = forward_looking_distill(
        stack, cfg.layers, decisions.distill_rows, decisions.distill_weights,
        det.refiner, decisions.teacher_rows)

    total = nm.weighted_sum([detection, dn.total, distillation],
                            [1.0, 1.0, cfg.lambda_distill])
    return StepLoss(total=total, detection=detection, denoising=dn,
                    distillation=distillation, decisions=decisions,
                    attention_maps=final_map())


# Nothing calls this; bench/tracing.py still looks it up by name, so it stays
# until the benchmark records spans from inside the package.
def iou3d_pair(a: OrientedBox3D, b: OrientedBox3D) -> float:
    return iou3d(a, b)


def inference(det: Detector, scene: Scene) -> list[Detection]:
    """Detections from the first group's learnable queries, no noisy blocks.

    Queries with maximum class confidence below the configured threshold are
    discarded; there is no non-maximum suppression. Nothing is recorded on
    the tape, the heads decode the final layer's rows only, and only the
    kept rows are decoded into boxes and corners.
    """
    cfg = det.cfg
    n = cfg.queries_per_group
    with nm.no_grad():
        memory = det.encode_features(scene.grid)
        queries, refs = (nm.Tensor(t.data[:n]) for t in det.learnable_queries())
        rows, _ = det.decoder_forward(memory, queries, build_denoising_mask(n, 0, 0))
        pred = det.apply_heads(rows[-1], refs).data
    probs = class_probs(pred)
    scores = probs.max(axis=1)
    # a row goes only when its score is below the threshold, so a NaN score stays
    keep = np.flatnonzero(~(scores < cfg.confidence_threshold))
    kept = pred[keep]
    decoded = zip(scores[keep].tolist(), probs[keep].argmax(axis=1).tolist(),
                  decode_box_rows(kept, range(len(keep))),
                  corner_boxes(kept[:, CENTER], kept[:, LRTB]).tolist())
    return [Detection(scene_id=scene.scene_id, category=category, score=score, box3d=box,
                      corners2d=tuple(corners))
            for score, category, box, corners in decoded]
