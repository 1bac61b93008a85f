"""Central finite-difference verification of the operations the detector runs.

Each registered check builds a scalar loss from random small inputs, runs the
tape backward, and compares the analytic gradients against central
differences (step 1e-6, double precision). The reported figure per check is

    max_i |analytic_i - numeric_i| / max(|analytic_i|, |numeric_i|, 1e-3)

i.e. a relative error with an absolute floor that keeps near-zero entries
from dividing by noise; a NaN entry counts as an infinite error, so its
check fails. The registry is the single source of truth for the
operation list printed by the ``grad-check`` CLI command. The reference ops
that only the tests compose are checked by the tests, with the same helpers.

An entry of :data:`REGISTRY` maps a name to (check, tolerance, repeats),
where a check maps a generator to its worst error. Most checks are one row
of :func:`_projected`: the op, a ``(shape, scale)`` spec per differentiated
input, the points it is not differentiable at, and a draw of its other
inputs; its loss is the op's output projected onto a random P and summed.
An entry whose inputs are structured, such as a kink placed relative to a
target or a whole detector's parameters, is a function written by hand.
"""

from __future__ import annotations

import math
import zlib
from typing import Callable, Sequence

import numpy as np

from . import numerics as nm
from .attention import masked_multihead_self_attention, multihead_cross_attention
from .geometry import GroundTruthObject, NoiseConfig
from .losses import TargetArrays, block_terms, component_loss, corner_boxes, decode_heads
from .model import Detector, DetectorConfig, training_loss
from .scenes import SceneConfig, generate_scene
from .vqd import VARIATIONAL, DenoisingConfig, VariationalQueryGenerator

STEP = 1e-6
OP_TOLERANCE = 1e-5
END_TO_END_TOLERANCE = 1e-4


def numeric_gradients(f: Callable[[], float], arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Central differences (step ``STEP``) of ``f`` w.r.t. arrays mutated in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            fp = f()
            flat[i] = orig - STEP
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * STEP)
        grads.append(g)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    err = float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0
    return math.inf if math.isnan(err) else err


def check_gradients(loss_fn: Callable[[], nm.Tensor], leaves: Sequence[nm.Tensor]) -> float:
    """Max relative error between tape gradients and central differences.

    ``loss_fn`` must be a pure function of the leaves' current values, with
    any detached or discrete inner decision frozen by the caller. The
    leaves' gradients are cleared first, and a leaf the loss does not reach
    has a zero gradient. The probes perturb each ``t.data`` in place; they
    need values only, so they run under ``no_grad``.
    """
    for t in leaves:
        t.grad = None
    nm.backward(loss_fn())
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad for t in leaves]
    with nm.no_grad():
        numeric = numeric_gradients(lambda: float(loss_fn().data), [t.data for t in leaves])
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))


def check_scalar_fn(build: Callable[[list[nm.Tensor]], nm.Tensor],
                    arrays: list[np.ndarray]) -> float:
    """:func:`check_gradients` of ``build``, a map from leaves over ``arrays`` to a loss."""
    leaves = [nm.Tensor(a, requires_grad=True) for a in arrays]
    return check_gradients(lambda: build(leaves), leaves)


def _away_from(x: np.ndarray, kinks: Sequence[float]) -> np.ndarray:
    """Move entries within 1e-3 of a non-differentiable point to 2e-3 from it."""
    for k in kinks:
        close = np.abs(x - k) < 1e-3
        x = np.where(close, k + 1e-3 * np.where(x >= k, 1.0, -1.0) * 2.0, x)
    return x


def _projected(op: Callable[..., nm.Tensor], *specs: tuple[tuple[int, ...], float],
               kinks: Sequence[float] = (), consts: Callable = lambda rng: ()) -> Callable:
    """Check of ``sum(op(*leaves, *consts(rng)) * P)``.

    Each leaf is N(0, scale^2) of its ``(shape, scale)`` spec, kept away from
    ``kinks``; ``consts`` draws the op's other inputs, and P is N(0, 1) with
    the shape of the op's output.
    """
    def check(rng) -> float:
        arrays = [_away_from(rng.normal(size=shape) * scale, kinks) for shape, scale in specs]
        fixed = consts(rng)
        p = nm.Tensor(rng.normal(size=op(*map(nm.Tensor, arrays), *fixed).shape))
        return check_scalar_fn(lambda ts: nm.sum_all(op(*ts, *fixed) * p), arrays)

    return check


def _gather_concat(x: nm.Tensor, y: nm.Tensor) -> nm.Tensor:
    cat = nm.concat_rows([x, y])
    return nm.concat_cols([nm.gather_rows(cat, i) for i in ([0, 2, 2, 6], [1, 2, 3, 4])])


def _attention_params(ts):
    """The (w, b) pairs of the q, k, v and o projections from ts[0:8]."""
    return list(zip(ts[0:8:2], ts[1:8:2]))


# wq, bq, wk, bk, wv, bv, wo, bo of an attention block of width 8
_ATTENTION_WEIGHTS = (((8, 8), 0.3), ((8,), 0.1)) * 4


def _check_component_loss(rng) -> float:
    """Three blocks of a 7-row stack in one row kernel, a run of two with one positive
    row each and one without any, their block sums weighed at random."""
    centers, lrtb = rng.uniform(0.3, 0.7, (7, 2)), rng.uniform(0.1, 0.3, (7, 4))
    pred = np.concatenate([rng.normal(size=(7, 2)) * 2.0, centers, lrtb, rng.normal(size=(7, 3)),
                           rng.normal(size=(7, 2)), rng.normal(size=(7, 1))], axis=1)
    positives = [2, 3]
    table = np.concatenate(
        [pred[positives, 2:] + _away_from(rng.normal(size=(2, 12)), [0.0]),
         corner_boxes(centers, lrtb)[positives] + rng.uniform(0.01, 0.15, (2, 4))],
        axis=1)  # no min/max ties
    targets = TargetArrays(rng.integers(2, size=2), table)
    weights = rng.normal(size=3)

    def build(ts):
        # position 1 of rows 1 and 2 and of rows 4 and 3: the positive rows 2 and 3
        terms, blocks = block_terms(ts[0], [[1, 2], [4, 3], [6, 5, 0]], [[1], [1], []], targets)
        return nm.weighted_sum([component_loss(terms, b) for b in blocks], weights)

    return check_scalar_fn(build, [pred])


def _check_weighted_row_smooth_l1(rng) -> float:
    pred = rng.normal(size=(4, 3)) * 2.0
    target = rng.normal(size=(4, 3)) * 2.0
    d = pred - target
    pred = np.where(np.abs(np.abs(d) - 1.0) < 1e-3, pred + 5e-3, pred)
    w = rng.random(size=(4,))
    return check_scalar_fn(lambda ts: nm.weighted_row_smooth_l1(ts[0], target, w), [pred])


def _check_box_encoder(rng) -> float:
    store = nm.ParameterStore(rng_seed=11)
    gen = VariationalQueryGenerator(store, num_classes=3, width=6)
    boxes = TargetArrays.of([
        GroundTruthObject(1, 0.4, 0.5, 0.1, 0.12, 0.08, 0.2, 3.5, 1.6, 1.5, 0.4, 11.0),
        GroundTruthObject(2, 0.6, 0.3, 0.05, 0.1, 0.1, 0.1, 0.8, 0.7, 1.8, -0.9, 7.0)])
    pm = rng.normal(size=(2, 6))
    pv = rng.normal(size=(2, 6))

    def loss_fn():
        dist = gen.encode(boxes, VARIATIONAL)
        return nm.sum_all(dist.mu * nm.Tensor(pm)) + nm.sum_all(dist.log_var * nm.Tensor(pv))

    return check_gradients(loss_fn, list(store.tensors()))


def _check_feature_encoder(rng) -> float:
    det = Detector(DetectorConfig(groups=1, queries_per_group=2, noisy_groups=0, width=8,
                                  heads=2, layers=1, num_classes=2), seed=13)
    grid = rng.normal(size=(3, 3, det.input_channels))
    proj = nm.Tensor(rng.normal(size=(9, 8)))
    return check_gradients(lambda: nm.sum_all(det.encode_features(grid) * proj),
                           list(det.store.tensors()))


def _check_end_to_end(rng) -> float:
    """Full training loss of a minimal detector against finite differences.

    Detached and discrete inner decisions (assignments, distillation teacher
    values, IoU weights, reparameterization noise) are captured once and
    replayed on every probe, matching what the tape differentiates.
    """
    cfg = DetectorConfig(groups=2, queries_per_group=2, noisy_groups=1, width=8,
                         heads=2, layers=2, num_classes=2)
    scene_cfg = SceneConfig(feature_size=4, num_classes=2, max_objects=1)
    scene = generate_scene(np.random.default_rng(3), scene_cfg, scene_id="chk", seed=3)
    det = Detector(cfg, seed=5)
    dn_cfg = DenoisingConfig()
    noisy = det.draw_noisy_queries(scene, NoiseConfig(), np.random.default_rng(17))

    replay = training_loss(det, scene, noisy, dn_cfg).decisions
    return check_gradients(lambda: training_loss(det, scene, noisy, dn_cfg, replay=replay).total,
                           list(det.store.tensors()))


# name -> (check fn, tolerance, number of random repeats)
REGISTRY: dict[str, tuple[Callable, float, int]] = {
    "linear": (_projected(nm.linear, ((3, 4), 1.0), ((4, 2), 1.0), ((2,), 1.0)),
               OP_TOLERANCE, 50),
    "layer_norm": (_projected(lambda x, gain, bias: nm.layer_norm(x, gain + 1.0, bias),
                              ((5, 6), 1.0), ((6,), 1.0), ((6,), 1.0)), OP_TOLERANCE, 50),
    "relu": (_projected(nm.relu, ((4, 4), 1.0), kinks=[0.0]), OP_TOLERANCE, 50),
    "sigmoid": (_projected(nm.sigmoid, ((4, 4), 3.0)), OP_TOLERANCE, 50),
    "exp": (_projected(nm.exp, ((3, 4), 1.0)), OP_TOLERANCE, 50),
    "clamp": (_projected(lambda t: nm.clamp(t, -1.5, 1.5), ((4, 4), 2.0), kinks=[-1.5, 1.5]),
              OP_TOLERANCE, 50),
    "weighted_row_smooth_l1": (_check_weighted_row_smooth_l1, OP_TOLERANCE, 50),
    "gaussian_kl": (_projected(nm.gaussian_kl, ((3, 4), 1.0), ((3, 4), 1.0)), OP_TOLERANCE, 50),
    # raw head rows of 3 layer blocks over 4 reference points, 2 classes
    "decode_heads": (_projected(decode_heads, ((12, 14), 2.0), ((4, 2), 1.0)), OP_TOLERANCE, 50),
    "component_loss": (_check_component_loss, OP_TOLERANCE, 50),
    "weighted_sum": (_projected(lambda a, b, c, w: nm.weighted_sum([a, b, c], w),
                                ((), 1.0), ((), 1.0), ((), 1.0),
                                consts=lambda rng: (rng.normal(size=3),)), OP_TOLERANCE, 50),
    "gather_concat": (_projected(_gather_concat, ((5, 3), 1.0), ((2, 3), 1.0)), OP_TOLERANCE, 50),
    # two groups of 5 rows stacked under one mask
    "masked_multihead_attention": (_projected(
        lambda q, *w: masked_multihead_self_attention(q, w[8], _attention_params(w), 2)[0],
        ((10, 8), 0.5), *_ATTENTION_WEIGHTS,
        consts=lambda rng: (np.eye(5, dtype=bool) | (rng.random(size=(5, 5)) > 0.4),)),
        OP_TOLERANCE, 5),
    # three query rows over a memory of five
    "multihead_cross_attention": (_projected(
        lambda q, memory, *w: multihead_cross_attention(q, memory, _attention_params(w), 2),
        ((3, 8), 0.5), ((5, 8), 0.5), *_ATTENTION_WEIGHTS), OP_TOLERANCE, 5),
    "noisy_box_encoder": (_check_box_encoder, OP_TOLERANCE, 5),
    "feature_encoder": (_check_feature_encoder, OP_TOLERANCE, 3),
    "end_to_end_minimal_model": (_check_end_to_end, END_TO_END_TOLERANCE, 1),
}


def run_suite(names: Sequence[str] | None = None) -> list[tuple[str, float, float, bool]]:
    """Run the registered checks; returns (name, max_err, tolerance, ok) rows.

    ``names`` selects checks by registry name, in the order given (KeyError
    for a name not registered); None runs them all. Each check draws its
    inputs from a stream seeded by a CRC of its name, so a run repeats
    exactly in any process.
    """
    rows = []
    for name in REGISTRY if names is None else names:
        fn, tol, repeats = REGISTRY[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        worst = 0.0
        for _ in range(repeats):
            worst = max(worst, fn(rng))
        rows.append((name, worst, tol, worst <= tol))
    return rows
