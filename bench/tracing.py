"""In-memory spans around the detector's layers, and tape-node counts.

Tracing works from outside the package: :func:`installed` replaces the
public functions and methods listed in :data:`LAYERS` with wrappers that
open a span (name, start, end, parent) for each call, and puts the originals
back on exit. Nothing in ``src/`` knows about it.

A span's self time is its duration minus the time its child spans cover.
Tape nodes are counted by walking ``Tensor._parents`` back from a layer's
outputs; a node belongs to the first layer, in completion order, whose walk
reaches it, so a layer's count stops at nodes that earlier layers made.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from vqdet import model, scenes, vqd
from vqdet import numerics as nm

# (owner, attribute, span name or None for a call counter, count tape nodes).
# The detector's modules import names into their own namespace, so a call
# is intercepted where the caller looks the name up: ``component_loss`` in
# ``model`` is the detection loss, the one in ``vqd`` the denoising blocks.
LAYERS = [
    (model.Detector, "encode_features", "model.encode", True),
    (model.Detector, "build_group_inputs", "model.query_build", True),
    (model.Detector, "draw_noisy_queries", "model.noise_draw", False),
    (model.Detector, "decoder_forward", "model.decoder", True),
    (model, "decode_box_rows", "model.decode", False),
    (model, "masked_multihead_self_attention", "attention.self", False),
    (model, "multihead_cross_attention", "attention.cross", False),
    (model, "matching_cost", "matching.cost", False),
    (model, "hungarian", "matching.hungarian", False),
    (model, "component_loss", "losses.detection", True),
    (model, "denoising_loss", "vqd.denoising", True),
    (vqd, "component_loss", None, False),
    (model, "iou_weights", "distill.weights", False),
    (model, "iou3d_pair", "distill.weights", False),
    (model, "forward_looking_distill", "distill.loss", True),
    (nm, "backward", "numerics.backward", False),
    (scenes, "generate_scene", "scenes.generate", False),
    (scenes, "per_class_ap40", "scenes.ap40", False),
]

STEP_SPAN = "bench.step"
UPDATE_SPAN = "bench.update"


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root


class Tracer:
    """Spans, call counts and per-layer tape-node counts of one phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.nodes: Counter = Counter()
        self.tape_bytes = 0
        self.keep_outputs = False
        self._open: list[int] = []
        self._outputs: list[tuple[str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent))
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str | None, key: str, count_nodes: bool):
        def traced(*args, **kwargs):
            self.calls[key] += 1
            if name is None:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if count_nodes and self.keep_outputs:
                self._outputs.append((name, out))
            return out

        return traced

    def count_step_nodes(self, *roots) -> None:
        """Attribute the step's tape to the layers whose outputs were kept.

        ``roots`` are the step's final outputs, by default everything the
        layers returned; every recorded node they reach adds to the step's
        tape count and its array to the tape bytes.
        """
        seen: set[int] = set()
        for name, out in self._outputs:
            self.nodes[name] += walk_tape(tensors_in(out), seen)[0]
        kept = [out for _, out in self._outputs]
        self._outputs.clear()
        count, nbytes = walk_tape(tensors_in(roots or kept), set())
        self.nodes["numerics.tape"] += count
        self.tape_bytes += nbytes

    def take(self) -> "Tracer":
        """Hand over everything recorded so far and start afresh."""
        done = Tracer()
        done.spans, self.spans = self.spans, []
        done.calls, self.calls = self.calls, Counter()
        done.nodes, self.nodes = self.nodes, Counter()
        done.tape_bytes, self.tape_bytes = self.tape_bytes, 0
        self._outputs.clear()
        return done


@contextmanager
def installed(tracer: Tracer):
    """Route every call in :data:`LAYERS` through ``tracer`` until exit."""
    saved = []
    try:
        for owner, attr, name, count_nodes in LAYERS:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            key = name or f"{owner.__name__}.{attr}"
            setattr(owner, attr, tracer.wrap(fn, name, key, count_nodes))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def tensors_in(obj):
    """Every Tensor inside nested lists, tuples and dataclasses."""
    if isinstance(obj, nm.Tensor):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from tensors_in(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from tensors_in(getattr(obj, f.name))


def walk_tape(roots, seen: set[int]) -> tuple[int, int]:
    """Recorded nodes reachable from ``roots`` and not in ``seen``, and their bytes.

    A recorded node is a tensor with parents on the tape; parameters and
    constants are leaves and are not counted. ``seen`` is updated in place.
    """
    count = nbytes = 0
    stack = list(roots)
    while stack:
        t = stack.pop()
        if not t._parents or id(t) in seen:
            continue
        seen.add(id(t))
        count += 1
        nbytes += t.data.nbytes
        stack.extend(t._parents)
    return count, nbytes


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time in seconds per span name."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    totals: dict[str, float] = defaultdict(float)
    for s, child in zip(spans, covered):
        totals[s.name] += (s.end - s.start) - child
    return dict(totals)


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that end before they start or leave their parent's interval."""
    bad = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            bad.append(f"span {i} ({s.name}) ends before it starts")
        elif s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                bad.append(f"span {i} ({s.name}) leaves its parent {p.name}")
    return bad
