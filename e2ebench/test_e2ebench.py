"""Self-tests of the E23 benchmark on tiny configurations of each workload.

Run from the repository root::

    python3 -m pytest -q e2ebench/test_e2ebench.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from ledger import fold  # noqa: E402
from repro.obs import validate_chrome_trace  # noqa: E402
from run import trace_document  # noqa: E402

FRAMES = 14
CLIENT_SPANS = {"client.send", "client.decode"}


def tiny_run(name: str, seed: int, traced: bool = False) -> harness.Run:
    run = harness.Run(harness.tiny(harness.WORKLOADS[name]), seed, traced=traced)
    run.measure(FRAMES)
    return run


def lossy_run(drop: str) -> tuple[harness.Run, str]:
    """A tiny trade run that loses its first input, or its first answer.

    ``drop`` is ``"input"`` (the bytes never reach the gateway) or
    ``"answer"`` (the event never reaches the attached client).
    Returns the run and the key of the request it lost.
    """
    run = harness.Run(harness.tiny(harness.WORKLOADS["trade"]), 6, traced=False)
    lost: list[str] = []
    if drop == "input":
        ingress = run._ingress

        def lossy_ingress(action, *args, req=None):
            if req is not None and not lost:
                lost.append(req.key)
                return
            ingress(action, *args, req=req)

        run._ingress = lossy_ingress
    else:
        absorb = run._absorb

        def lossy_absorb(client, msg, ready, span):
            if isinstance(msg, harness.EventMsg) and not lost:
                lost.append(msg.key)
                return
            absorb(client, msg, ready, span)

        run._absorb = lossy_absorb
    run.measure(FRAMES)
    return run, lost[0]


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_counts_repeat_for_a_seed_and_differ_across_seeds(name):
    first = tiny_run(name, seed=3)
    assert first.checker.problems() == []
    again = tiny_run(name, seed=3)
    other = tiny_run(name, seed=4)
    assert first.counts() == again.counts()
    assert first.end_to_end()["bytes_per_client_tick"] == (
        again.end_to_end()["bytes_per_client_tick"]
    )
    assert first.counts() != other.counts()
    assert first.counts()["commits"] > 0


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_layer_self_times_add_up_to_the_traced_frames(name):
    run = tiny_run(name, seed=5, traced=True)
    assert run.checker.problems() == []
    selfs, total = fold(run.tracer.sink.spans, range(FRAMES))
    server = sum(v for k, v in selfs.items() if k not in CLIENT_SPANS)
    assert total > 0
    assert math.isclose(server, total, rel_tol=1e-9)
    layers = run.per_layer()
    from_layers = sum(
        layers[metric] for span, metric in harness.LAYER_SPANS
        if span not in CLIENT_SPANS
    ) + run.frame_total_ms * layers["harness.unattributed_pct"] / 100.0
    assert math.isclose(from_layers, run.frame_total_ms, rel_tol=1e-9)
    doc = trace_document(run, range(FRAMES))
    assert validate_chrome_trace(doc) > 0
    assert any(e["ph"] == "s" for e in doc["traceEvents"])
    assert any("req" in e.get("args", {}) for e in doc["traceEvents"])


def test_checker_rejects_a_duplicate_event():
    run = tiny_run("crowd", seed=6)
    assert run.checker.problems() == []
    client = run.clients[0]
    run.checker.on_event(client.name, f"{client.avatar}:trade:dup")
    run.checker.on_event(client.name, f"{client.avatar}:trade:dup")
    assert any("twice" in p for p in run.checker.problems())


def test_checker_rejects_a_gold_leak():
    run = tiny_run("trade", seed=6)
    assert run.checker.problems() == []
    cluster_gold = {c.avatar: harness.GOLD for c in run.clients}
    ledger_gold = dict(cluster_gold)
    cluster_gold[run.clients[0].avatar] += 1
    run.checker.check_gold(cluster_gold, ledger_gold, run.gold_total)
    problems = run.checker.problems()
    assert any("expected" in p for p in problems)
    assert any("ledger gold" in p for p in problems)


def test_checker_rejects_a_dropped_input():
    run, key = lossy_run("input")
    problems = run.checker.problems()
    assert any("the gateway took" in p for p in problems)
    assert any("reached the cluster" in p for p in problems)
    assert any(f"request {key} was never decided" in p for p in problems)


def test_checker_rejects_a_lost_answer():
    run, key = lossy_run("answer")
    problems = run.checker.problems()
    assert any(f"decided request {key} was not answered" in p for p in problems)


def test_checker_rejects_a_delta_gap():
    run = tiny_run("sim", seed=6)
    run.checker.on_delta("c0000", "s", 0)
    run.checker.on_delta("c0000", "s", 2)
    assert any("expected 1" in p for p in run.checker.problems())


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "crowd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
