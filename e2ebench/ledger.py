"""Per-layer cost ledger: self time folded from the benchmark's own spans.

The benchmark records wall-clock spans with a ``repro.obs`` tracer of
its own (never handed to the program) from its side of every layer
boundary: its calls into a layer's public functions, and the objects it
hands the program (transports, outbox sink, kernels, script systems,
the cluster view).  Each span's ``tick`` is the server frame it ran in.

Self time is a span's duration minus the time its direct children
cover; a frame's unattributed time is the self time of the ``frame``
root span itself.  By construction the self times of every server span
in the measured frames plus the unattributed time equal the frames'
total.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs import Span

#: Root span of one server frame; its self time is "unattributed".
FRAME = "frame"


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus its direct children's, in seconds."""
    spans = list(spans)
    out = {s.span_id: float(s.dur) for s in spans}
    for s in spans:
        if s.parent_id in out:
            out[s.parent_id] -= s.dur
    return {k: v * 1e-6 for k, v in out.items()}


def fold(spans: list[Span], frames: range) -> tuple[dict[str, float], float]:
    """Self seconds per span name over ``frames``, and the frames' total.

    Client-side spans (outside any ``frame`` span) are folded too, but do
    not add to the frame total.  ``FRAME`` in the result is the
    unattributed time.
    """
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    total = 0.0
    for s in spans:
        if s.tick not in frames:
            continue
        by_name[s.name] = by_name.get(s.name, 0.0) + selfs[s.span_id]
        if s.name == FRAME:
            total += s.dur * 1e-6
    return by_name, total


def per_frame_series(spans: list[Span], name: str, frames: range) -> list[float]:
    """Self seconds of spans named ``name`` in each of ``frames``."""
    selfs = self_times(spans)
    series = {f: 0.0 for f in frames}
    for s in spans:
        if s.name == name and s.tick in series:
            series[s.tick] += selfs[s.span_id]
    return [series[f] for f in frames]
