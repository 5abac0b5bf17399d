"""E23 end-to-end benchmark of the serving path.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload crowd|sim|trade --seed N \\
        --seconds S --trace 0|1

``--trace 0`` builds the stack repeatedly for a few seconds and measures
the last build, then builds it again for as long (``setup_s`` is the
median of every build) and prints the end-to-end metrics.  ``--trace 1``
measures an untraced build and then a traced build of the same inputs,
prints the per-layer table (self time per layer, counts, ratios,
unattributed time, tracing overhead) and writes it, with a Chrome
trace_event file of the last frames, under ``e2ebench/out/``.  Every run
checks the program's outputs first; a failed check exits 1 and reports
no metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds of set-ups timed before the measured frames (the last build
#: is measured) and again after them, at least ``MIN_SETUPS`` builds
#: each.  A build takes 0.1-0.6 s; many of them, spread over the run,
#: steady the median against the host's seconds-long fast and slow phases.
SETUP_SECONDS = 3.0
MIN_SETUPS = 3
#: Nominal frame time: ``--seconds`` buys this many ms per measured
#: frame (15 s = 200 frames; real frames take 50-110 ms on the
#: reference host depending on the workload).
FRAME_MS = 75.0
#: Frames written to the Chrome trace (the last measured ones).
TRACE_FRAMES = 16

END_TO_END_UNITS = {
    "setup_s": "s",
    "tick_ms_p95": "ms",
    "input_ms_p95": "ms",
    "bytes_per_client_tick": "B",
    "inputs_ok_pct": "%",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_growth")):
        return "ratio"
    if name == "outbox.lag":
        return "rows"
    return "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("crowd", "sim", "trade"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_harness():
    """Import the harness against this checkout's ``src/`` tree."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no program source at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import harness

    return harness


def checked(run) -> None:
    problems = run.checker.problems()
    if problems:
        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        raise SystemExit(1)


def build(harness, workload, seed: int, traced: bool):
    """Build one stack; returns ``(run, seconds)``."""
    # Collect the previous stack's garbage outside the timed region.
    gc.collect()
    t0 = time.perf_counter()
    run = harness.Run(workload, seed, traced=traced)
    return run, time.perf_counter() - t0


def lost(reqs) -> int:
    """Inputs the serving path lost: unanswered although the client stayed
    attached.  Refusals and answers a churned client missed are outcomes
    of a correct run; inputs_ok_pct counts them."""
    return sum(1 for r in reqs if r.status == "lost")


def result_line(result: dict, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": True,
        **result,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def timed_builds(harness, workload, seed: int):
    """Build for ``SETUP_SECONDS`` (``MIN_SETUPS`` builds at least).

    Returns the last build and every build's seconds.
    """
    setups: list[float] = []
    run = None
    while len(setups) < MIN_SETUPS or sum(setups) < SETUP_SECONDS:
        run = None  # free the previous stack before building the next
        run, seconds = build(harness, workload, seed, traced=False)
        setups.append(seconds)
    return run, setups


def untraced(harness, workload, seed: int, frames: int) -> None:
    run, setups = timed_builds(harness, workload, seed)
    run.measure(frames)
    checked(run)
    values = run.end_to_end()
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    reqs = run.measured_requests()
    summary = (f"frames {frames}, inputs {len(reqs)}, answered ok "
               f"{sum(1 for r in reqs if r.status == 'ok')}, inputs_failed_pct "
               f"{100.0 - values['inputs_ok_pct']:.4f} %")
    result = {"attempted": len(reqs), "failed": lost(reqs)}
    run = None
    setups += timed_builds(harness, workload, seed)[1]
    values["setup_s"] = statistics.median(setups)
    metrics = {k: (values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
    for name in sorted(values):
        print(f"{name:24s} {values[name]:12.4f} "
              f"{END_TO_END_UNITS.get(name, 'ms')}")
    print("setups " + " ".join(f"{t:.4f}" for t in setups) + " s")
    print(summary)
    print(result_line(result, metrics))


def traced(harness, workload, seed: int, frames: int) -> None:
    from repro.obs import validate_chrome_trace

    base, _ = build(harness, workload, seed, traced=False)
    base.measure(frames)
    checked(base)
    # Medians come from the untraced build: reported, not gated (see
    # NOTES.md), and the base of the tracing overhead.
    medians = {k: v for k, v in base.end_to_end().items() if "_p50" in k}
    base = None
    run, _ = build(harness, workload, seed, traced=True)
    run.measure(frames)
    checked(run)
    layers = run.per_layer()
    layers.update(medians)
    layers["trace.overhead_pct"] = 100.0 * (
        run.end_to_end()["tick_ms_p50"] / medians["tick_ms_p50"] - 1.0
    )
    table = layer_table(harness, run, layers)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    (out / f"{stem}-layers.txt").write_text(table)
    doc = trace_document(run, range(max(0, frames - TRACE_FRAMES), frames))
    validate_chrome_trace(doc)
    (out / f"{stem}-trace.json").write_text(json.dumps(doc))
    print(table, end="")
    metrics = {k: (v, per_layer_unit(k)) for k, v in sorted(layers.items())}
    reqs = run.measured_requests()
    print(result_line({"attempted": len(reqs), "failed": lost(reqs)}, metrics))


def trace_document(run, frames: range) -> dict:
    """Chrome trace_event document of the benchmark's spans in ``frames``.

    Server and client spans land on their own lanes; each request's
    flow arrow runs from its ingress to the client's decode of the
    answer (requests not answered inside the window carry none).
    """
    from repro.obs import to_chrome_trace

    sink = run.tracer.sink
    return to_chrome_trace(
        [s for s in sink.spans if s.tick in frames],
        label="e2ebench",
        flows=[fp for fp in sink.flows if fp.tick in frames],
    )


def layer_table(harness, run, layers: dict[str, float]) -> str:
    """The per-layer ledger as text: self time and share of the frame."""
    total = run.frame_total_ms
    lines = [
        f"E23 {run.wl.name} seed {run.seed}: {run.frames} traced frames, "
        f"mean frame {total:.3f} ms (client send/decode outside the frame)",
        f"{'layer':28s} {'ms/frame':>10s} {'share':>8s}",
    ]
    rows = [(m, layers[m]) for _span, m in harness.LAYER_SPANS]
    rows.append(("harness.unattributed",
                 total * layers["harness.unattributed_pct"] / 100.0))
    for name, ms in sorted(rows, key=lambda r: -r[1]):
        share = "" if name.startswith("client.") else f"{100 * ms / total:7.2f}%"
        lines.append(f"{name:28s} {ms:10.3f} {share:>8s}")
    lines.append("")
    for name in sorted(layers):
        if not name.endswith("_ms"):
            lines.append(f"{name:28s} {layers[name]:14.4f} "
                         f"{per_layer_unit(name)}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    harness = load_harness()
    workload = harness.WORKLOADS[args.workload]
    frames = max(1, round(args.seconds * 1000.0 / FRAME_MS))
    if args.trace:
        traced(harness, workload, args.seed, frames)
    else:
        untraced(harness, workload, args.seed, frames)
    return 0


if __name__ == "__main__":
    sys.exit(main())
