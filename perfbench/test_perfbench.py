"""The benchmark's own tests: its checks catch bad outputs, and every
workload runs end to end at smoke size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import frames  # noqa: E402
import probes  # noqa: E402
import verify  # noqa: E402
from repro.codes.registry import default_registry  # noqa: E402
from repro.decoder.api import decode_many  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 90210


@pytest.mark.parametrize("code_id", ["wimax-r12-576", "wimax-r12-2304"])
def test_batch_encoder_matches_the_program_encoder(code_id):
    reg = default_registry()
    code = reg.get(code_id)
    rng = np.random.default_rng(5)
    messages = rng.integers(0, 2, (3, code.n - code.m), dtype=np.uint8)
    got = frames.encode_batch(code, messages)
    want = np.stack([reg.encoder(code_id).encode(m) for m in messages])
    assert np.array_equal(got, want)


def test_frames_are_distinct_and_seeded():
    code = default_registry().get("wimax-r12-576")
    a = frames.make_frames(code, 4.0, 64, seed=3)
    b = frames.make_frames(code, 4.0, 64, seed=3)
    c = frames.make_frames(code, 4.0, 64, seed=4)
    assert np.array_equal(a.llrs_i8, b.llrs_i8)
    assert not np.array_equal(a.llrs_i8, c.llrs_i8)
    assert len({row.tobytes() for row in a.llrs_i8}) == 64


@pytest.fixture(scope="module")
def decoded():
    """Low-SNR frames (some unconverged) and honest program outputs."""
    code = default_registry().get("wimax-r12-576")
    fs = frames.make_frames(code, 1.5, 48, seed=11)
    res = decode_many(code, fs.llr_rows(range(48)), max_iterations=10)
    out = verify.Outputs(
        index=np.arange(48), bits=np.packbits(res.bits, axis=1),
        converged=res.converged.copy(), iterations=res.iterations.copy(),
    )
    assert out.converged.any() and not out.converged.all()
    return fs, out


def _check(fs, out, shed=0):
    return verify.check_outputs(
        fs, out, max_iterations=10, fixed=False, wire=False,
        frames_shed=shed, sample=len(out.index), seed=1,
    )


def _copy(out):
    return verify.Outputs(out.index.copy(), out.bits.copy(),
                          out.converged.copy(), out.iterations.copy())


def test_honest_outputs_pass(decoded):
    fs, out = decoded
    report = _check(fs, out)
    assert report.ok and report.failed == 0


def test_a_flipped_bit_is_caught(decoded):
    fs, out = decoded
    bad = _copy(out)
    row = int(np.flatnonzero(bad.converged)[0])
    bad.bits[row, 0] ^= 0x80
    report = _check(fs, bad)
    assert not report.ok and report.failed == 1
    assert any(p.startswith("(a)") for p in report.problems)
    assert any(p.startswith("(b)") for p in report.problems)


def test_a_wrong_iteration_count_is_caught(decoded):
    fs, out = decoded
    bad = _copy(out)
    row = int(np.flatnonzero(bad.converged)[0])
    bad.iterations[row] += 1
    report = _check(fs, bad)
    assert not report.ok and report.failed == 1
    assert any(p.startswith("(c)") for p in report.problems)


def test_an_unconverged_frame_claimed_converged_is_caught(decoded):
    fs, out = decoded
    bad = _copy(out)
    row = int(np.flatnonzero(~bad.converged)[0])
    bad.converged[row] = True
    report = _check(fs, bad)
    assert not report.ok and report.failed >= 1


def test_a_shed_budget_is_caught(decoded):
    fs, out = decoded
    report = _check(fs, out, shed=2)
    assert not report.ok and report.failed == 2
    assert any(p.startswith("(d)") for p in report.problems)


def test_a_gateway_only_shed_fails_the_run(decoded):
    # admission shed the frame on the fill it read; the service's own
    # queue had drained by submit, so only the gateway counted it
    fs, out = decoded
    counters = {"serve_frames_shed": 0.0, "net_shed_total": 1.0}
    report = _check(fs, out, shed=probes.shed_count(counters))
    assert not report.ok and report.failed == 1
    assert any(p.startswith("(d)") for p in report.problems)


def _run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _run(workload, HELD_OUT_SEED, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", ["wire-576", "paper-2304"])
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    proc = _run(workload, 5, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["metrics"]["engine.frames_shed"]["value"] == 0
    trace = BENCH_DIR / "out" / f"trace-{workload}-seed5.json"
    events = json.loads(trace.read_text())["traceEvents"]
    assert {"pool.submit", "pool.decode", "client.request"} <= {
        e["name"] for e in events}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("wire-576", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
