"""Benchmark of the vqdet training step and inference.

Run from the repository root:

    python3 bench/run.py --workload train --seed 0 --seconds 30 --trace 0

Set-up (build the detector, generate the scenes, warm up) is timed
SETUP_REPEATS times. Whole rounds then run until they have taken
``--seconds`` and at least MIN_SAMPLES steps are timed; one checked round
follows, outside the timed phase. Every time reported is rescaled by a
reference kernel timed next to it, so that the speed of a shared core drops
out (see ``calibrate.py``). The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` every
layer's self time per step, its tape-node count and call counts, measured
through wrappers installed around the detector's functions (see
``tracing.py``), and the spans are written under ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small (at most 256 x 128), so a second
# thread adds hand-off cost and run-to-run noise rather than speed. Must be
# set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "vqdet" / "model.py").is_file():
    sys.exit(f"bench: no vqdet sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_SAMPLES = 100  # so that ten samples lie beyond the reported p90

# per-layer metric -> the span whose self time per step it reports
LAYER_TIMES = {
    "numerics.backward_ms": "numerics.backward",
    "model.encode_ms": "model.encode",
    "model.query_build_ms": "model.query_build",
    "model.noise_draw_ms": "model.noise_draw",
    "model.decoder_ms": "model.decoder",
    "model.decode_ms": "model.decode",
    "attention.self_ms": "attention.self",
    "attention.cross_ms": "attention.cross",
    "losses.detection_ms": "losses.detection",
    "vqd.denoising_ms": "vqd.denoising",
    "matching.cost_ms": "matching.cost",
    "matching.hungarian_ms": "matching.hungarian",
    "distill.weights_ms": "distill.weights",
    "distill.loss_ms": "distill.loss",
    "scenes.ap40_ms": "scenes.ap40",
    "bench.update_ms": tracing.UPDATE_SPAN,
    "bench.other_ms": tracing.STEP_SPAN,
}
# per-layer metric -> the layer whose tape nodes per step it reports
LAYER_NODES = {
    "numerics.tape_nodes": "numerics.tape",
    "model.encode_nodes": "model.encode",
    "model.query_build_nodes": "model.query_build",
    "model.decoder_nodes": "model.decoder",
    "losses.detection_nodes": "losses.detection",
    "vqd.denoising_nodes": "vqd.denoising",
    "distill.loss_nodes": "distill.loss",
}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(clock: calibrate.Clock, completed: int,
               setup_s: list[float], peak_rss_mb: float) -> dict:
    """Scaled times of the timed phase and set-up; see ``calibrate.py``."""
    step_ms = np.array(clock.scaled_steps()) * 1e3
    return {
        "scenes_per_s": metric(completed / clock.scaled_elapsed(), "1/s"),
        "step_ms_p50": metric(np.percentile(step_ms, 50), "ms"),
        "step_ms_p90": metric(np.percentile(step_ms, 90), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        "setup_s": metric(statistics.median(setup_s), "s"),
    }


def per_layer(timed: tracing.Tracer, clock: calibrate.Clock, round_steps: int,
              generate_ms: list[float]) -> dict:
    """Self times per step over the timed phase; tape counts per step of round 0.

    Span times are scaled by one factor for the whole run, the ratio of the
    scaled to the wall step times, so that they still add up to the step.
    """
    steps = clock.steps
    factor = sum(clock.scaled_steps()) / sum(clock.wall_steps())
    self_s = tracing.self_times(timed.spans)
    out = {name: metric(1e3 * factor * self_s.get(span, 0.0) / steps, "ms")
           for name, span in LAYER_TIMES.items()}
    step_spans = [s for s in timed.spans if s.name == tracing.STEP_SPAN]
    step_s = sum(s.end - s.start for s in step_spans)
    out["bench.step_ms"] = metric(1e3 * factor * step_s / steps, "ms")
    out["scenes.generate_ms"] = metric(statistics.median(generate_ms), "ms")
    for name, layer in LAYER_NODES.items():
        out[name] = metric(timed.nodes[layer] / round_steps, "count")
    out["numerics.tape_mb"] = metric(timed.tape_bytes / 2**20 / round_steps, "MiB")
    component_calls = timed.calls["losses.detection"] + timed.calls["vqdet.vqd.component_loss"]
    out["losses.component_loss_calls"] = metric(component_calls / steps, "count")
    return out


def trace_problems(timed: tracing.Tracer, layers: dict) -> list[str]:
    """The span tree is well formed and the layers add up to the traced step."""
    problems = tracing.nesting_errors(timed.spans)
    roots = {s.name for s in timed.spans if s.parent < 0}
    if not roots <= {tracing.STEP_SPAN, "scenes.ap40"}:
        problems.append(f"unexpected root spans {sorted(roots)}")
    inside = sum(v["value"] for k, v in layers.items()
                 if k in LAYER_TIMES and k != "scenes.ap40_ms")
    step = layers["bench.step_ms"]["value"]
    print(f"layer self times add up to {inside:.4f} ms of a {step:.4f} ms traced step",
          file=sys.stderr)
    if not abs(inside - step) <= 1e-6 * step:
        problems.append(f"layer self times sum to {inside} ms, traced step is {step} ms")
    return problems


def write_trace(timed: tracing.Tracer, workload: str, seed: int) -> Path:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start_s", "end_s", "parent"],
                   "spans": [[s.name, s.start, s.end, s.parent] for s in timed.spans]}, fh)
    return path


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = workloads.make(workload, seed)
    tracer = tracing.Tracer() if trace else None
    with tracing.installed(tracer) if tracer else nullcontext():
        setup_s, generate_ms = [], []
        for _ in range(SETUP_REPEATS):
            before = calibrate.sample(calibrate.SETUP_CALLS)
            start = perf_counter()
            work.setup()
            wall = perf_counter() - start
            factor = calibrate.scale(before + calibrate.sample(calibrate.SETUP_CALLS))
            setup_s.append(wall * factor)
            if tracer:
                spans = tracer.take().spans
                generate_ms.append(
                    1e3 * factor * tracing.self_times(spans).get("scenes.generate", 0.0))

        if tracer:
            tracer.keep_outputs = True
        # The clock runs only inside rounds; rounds are compared between them.
        clock = calibrate.Clock()
        failures: list[str] = []
        rounds = failed = 0
        elapsed = 0.0
        while elapsed < seconds or clock.steps < MIN_SAMPLES:
            clock.start_round()
            start = perf_counter()
            outputs, round_failed = work.run_round(clock, tracer)
            wall = perf_counter() - start
            clock.end_round(wall)
            elapsed += wall
            if rounds == 0:
                first = outputs
            else:
                failures += [f"round {rounds}: {f}"
                             for f in work.compare_rounds(first, outputs)]
            rounds += 1
            failed += round_failed
            if tracer:
                tracer.keep_outputs = False
        timed = tracer.take() if tracer else None

    # Read before the checks, whose reference computations hold more memory.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures += work.verify(first)
    attempted = clock.steps
    if timed is None:
        metrics = end_to_end(clock, attempted - failed, setup_s, peak_rss_mb)
    else:
        metrics = per_layer(timed, clock, len(work.scenes), generate_ms)
        failures += trace_problems(timed, metrics)
        print(f"spans written to {write_trace(timed, workload, seed)}", file=sys.stderr)
        print(f"traced step_ms_p50 {1e3 * statistics.median(clock.scaled_steps()):.4f}",
              file=sys.stderr)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6f} {m['unit']}", file=sys.stderr)
    kernel_ms = [1e3 * t for r in clock.rounds for t in r.kernel]
    print(f"{rounds} rounds, {attempted} steps in {clock.wall_elapsed():.2f} s of wall time; "
          f"wall step_ms_p50 {1e3 * statistics.median(clock.wall_steps()):.4f}; "
          f"reference kernel median {statistics.median(kernel_ms):.4f} ms, "
          f"min {min(kernel_ms):.4f} ms", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
