"""Tests of the end-to-end benchmark, with every workload at a tiny size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, workloads
from repro import collect
from repro.trace import trace_fingerprint

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = workloads.DEFAULT_SEED


def tiny(name: str, pin: str | None = None):
    if name == "paper-ron2003":
        return workloads.PaperRon2003(hours=0.05, fec_groups=2_000, pin=pin)
    if name == "clp-sweep":
        return workloads.ClpSweep(hours=0.5, pairs=20_000, pin=pin)
    return workloads.Mesh100Engine(hosts=12, duration_s=60.0, pin=pin)


def _drop_first_row(out: dict) -> None:
    trace = out["trace"]
    out["trace"] = trace.select(np.arange(len(trace)) > 0)


def _zero_clp(out: dict) -> None:
    out["clp"][0.0] = 0.0


TAMPER = {
    "paper-ron2003": _drop_first_row,
    "clp-sweep": _zero_clp,
    "mesh100-engine": _drop_first_row,
}


@pytest.fixture(autouse=True)
def _minimum_builds(monkeypatch):
    """Tiny builds take milliseconds; stop at the minimum build count."""
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.0)


def _measure(workload, tmp_path, seed: int = SEED, **kwargs) -> dict:
    return harness.measure(workload, seed=seed, seconds=0, scratch=str(tmp_path), **kwargs)


def _units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_end_to_end_metrics_printed_with_units(name, tmp_path):
    result = _measure(tiny(name), tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= harness.MIN_OPS
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_layers_match_benchmark_json(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = _measure(tiny(name), tmp_path, trace=True, spans_path=str(spans))
    assert result["correct"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _units(SPEC["per_layer"])
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert records and all(r["end_ns"] >= r["start_ns"] for r in records)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tampered_output_counts_as_failed(name, tmp_path):
    workload = tiny(name)
    honest = workload.run

    def tampered(network):
        out = honest(network)
        TAMPER[name](out)
        return out

    workload.run = tampered
    result = _measure(workload, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= harness.MIN_OPS


def test_pin_is_checked_at_default_seed_only(tmp_path):
    wrong = "0" * 64
    at_default = _measure(tiny("paper-ron2003", wrong), tmp_path)
    assert at_default["failed"] == at_default["attempted"]
    other = _measure(tiny("paper-ron2003", wrong), tmp_path, seed=SEED + 1)
    assert other["failed"] == 0


def test_engine_trace_equals_sequential_collect(tmp_path):
    workload = tiny("mesh100-engine")
    workload.prepare(SEED, str(tmp_path))
    try:
        network = workload.setup()
        out = workload.run(network)
        assert workload.check(out) == []
        sequential = collect(workload.ds, workload.duration_s, seed=SEED, network=network)
        assert trace_fingerprint(out["trace"]) == trace_fingerprint(sequential.trace)
        workload.release(out)
    finally:
        workload.close()


def test_command_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "clp-sweep", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_and_rates_scale_to_reference_speed():
    scale = 0.8  # the host ran slower than the reference
    assert harness._at_reference_speed(2.0, "s", scale) == pytest.approx(1.6)
    assert harness._at_reference_speed(100.0, "1/s", scale) == pytest.approx(125.0)
    assert harness._at_reference_speed(412.0, "MB", scale) == 412.0
    assert harness._at_reference_speed(7, "count", scale) == 7
