"""The traced run: per-layer metrics, timed from outside each layer.

Three sources feed it.  The traced half of the workload, whose program
side wraps the service and admission objects in timing probes; the
counters the program already exports in its metrics registry; and stage
runs here, which call ``decode_many``, ``ContinuousBatchingEngine.step``,
``encode_request``, ``decode_frame``, ``encode_result`` and ``crc32c``
on the workload's own frames.  ``paper-2304`` has no wire, so its
gateway and wire figures come from a short side pass of the same code
through a gateway.  Spans are kept in memory and written out as one
Chrome trace at the end.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import statistics
import time

import numpy as np

from repro.decoder.api import decode_many
from repro.net.admission import GOLD
from repro.net.crc import crc32c
from repro.net.protocol import decode_frame, encode_request, encode_result
from repro.serve.engine import ContinuousBatchingEngine
from repro.serve.jobs import DecodeJob

import frames as frames_mod
import probes
import workloads as wmod

#: name -> (unit, better); the order is the order of the printed result.
PER_LAYER = {
    "setup.import_s": ("s", "lower"),
    "setup.code_build_s": ("s", "lower"),
    "setup.service_start_s": ("s", "lower"),
    "setup.gateway_ready_s": ("s", "lower"),
    "setup.first_frame_ms": ("ms", "lower"),
    "kernel.fps": ("frames/s", "higher"),
    "kernel.layer_update_ns": ("ns", "lower"),
    "kernel.b1_ms": ("ms", "lower"),
    "engine.frames_per_step": ("frames", "higher"),
    "engine.step_ms": ("ms", "lower"),
    "engine.iterations_per_frame": ("count", "lower"),
    "engine.unconverged_frames": ("count", "lower"),
    "engine.frames_shed": ("count", "lower"),
    "pool.submit_us": ("us", "lower"),
    "pool.queue_wait_ms_p50": ("ms", "lower"),
    "pool.decode_ms_p50": ("ms", "lower"),
    "pool.decode_ms_p99": ("ms", "lower"),
    "wire.crc32c_us_per_kib": ("us/KiB", "lower"),
    "wire.request_encode_us": ("us", "lower"),
    "wire.request_decode_us": ("us", "lower"),
    "wire.result_encode_us": ("us", "lower"),
    "wire.result_decode_us": ("us", "lower"),
    "wire.bytes_per_frame": ("B", "lower"),
    "gateway.admission_us_p50": ("us", "lower"),
    "gateway.respond_us_p50": ("us", "lower"),
    "gateway.total_ms_p50": ("ms", "lower"),
    "gateway.outside_ms_p50": ("ms", "lower"),
    "client.cpu_ms_per_frame": ("ms", "lower"),
    "gen.late_p99_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

_SIDE_PASS_S = 1.0


def _timed(fn, reps: int):
    """Median wall time of ``fn(i)`` over ``reps`` calls, and its results."""
    times, outs = [], []
    for i in range(reps):
        t = time.perf_counter()
        outs.append(fn(i))
        times.append(time.perf_counter() - t)
    return statistics.median(times), outs


def stage_runs(wl, fs, max_iterations: int, frames_per_step: float,
               version: int, spans: probes.Spans) -> dict:
    """Kernel, engine and wire-codec calls on ``fs``, the stage frames.

    Decoding runs on the iteration budget the workload's service reported;
    the engine steps at the occupancy the workload showed; the wire codec
    speaks the protocol ``version`` the workload's connections negotiated.
    """
    code = fs.code
    count = len(fs)
    rows = fs.llr_rows(range(count))
    out = {}

    t0 = time.monotonic()
    iterations = unconverged = 0
    results = []
    for lo in range(0, count, wl.batch):
        r = decode_many(code, rows[lo:lo + wl.batch],
                        max_iterations=max_iterations, fixed=wl.fixed)
        iterations += int(r.iterations.sum())
        unconverged += int((~r.converged).sum())
        results.append(r)
    t1 = time.monotonic()
    spans.add("stage.decode_many", t0, t1)
    out["kernel.fps"] = count / (t1 - t0)
    out["kernel.layer_update_ns"] = (
        (t1 - t0) / (iterations * code.num_layers) * 1e9)
    out["engine.iterations_per_frame"] = iterations / count
    out["engine.unconverged_frames"] = unconverged

    t0 = time.monotonic()
    b1, _ = _timed(lambda i: decode_many(
        code, rows[i:i + 1], max_iterations=max_iterations,
        fixed=wl.fixed), min(count, 64))
    spans.add("stage.decode_many.b1", t0, time.monotonic())
    out["kernel.b1_ms"] = b1 * 1e3

    occupancy = int(min(wl.batch, max(1, round(frames_per_step))))
    engine = ContinuousBatchingEngine(code, batch_size=wl.batch,
                                      max_iterations=max_iterations,
                                      fixed=wl.fixed)
    step_times = []
    nxt = 0
    t0 = time.monotonic()
    for _ in range(96):
        while engine.in_flight < occupancy:
            engine.admit(DecodeJob(llrs=rows[nxt % count]))
            nxt += 1
        t = time.perf_counter()
        engine.step()
        step_times.append(time.perf_counter() - t)
    spans.add("stage.engine.step", t0, time.monotonic())
    out["engine.step_ms"] = statistics.median(step_times) * 1e3

    bits = np.concatenate([r.bits for r in results])
    conv = np.concatenate([r.converged for r in results])
    iters = np.concatenate([r.iterations for r in results])
    reps = min(count, 64)
    t0 = time.monotonic()
    enc_req, requests = _timed(lambda i: encode_request(
        i + 1, "bench", wl.code_id, GOLD, llrs=rows[i], version=version),
        reps)
    dec_req, _ = _timed(lambda i: decode_frame(requests[i][4:]), reps)
    crc, _ = _timed(lambda i: crc32c(requests[i]), reps)
    enc_res, replies = _timed(lambda i: encode_result(
        i + 1, bool(conv[i]), int(iters[i]), bits[i], version=version), reps)
    dec_res, _ = _timed(lambda i: decode_frame(replies[i][4:]), reps)
    spans.add("stage.wire_codec", t0, time.monotonic())
    out["wire.crc32c_us_per_kib"] = crc / len(requests[0]) * 1024 * 1e6
    out["wire.request_encode_us"] = enc_req * 1e6
    out["wire.request_decode_us"] = dec_req * 1e6
    out["wire.result_encode_us"] = enc_res * 1e6
    out["wire.result_decode_us"] = dec_res * 1e6
    return out


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def gateway_figures(rec, win, stats) -> dict:
    """Gateway and wire figures from a traced server's ``stats`` reply."""
    c = stats["counters"]
    ok = rec.sent & ~rec.err & ~np.isnan(rec.te)
    done = ok & (rec.te >= win.t0) & (rec.te <= win.t1)
    client_p50 = percentile((rec.te - rec.ts)[done], 50)
    return {
        "gateway.admission_us_p50": percentile(stats["admission_s"], 50) * 1e6,
        "gateway.respond_us_p50": stats["respond_p50_s"] * 1e6,
        "gateway.total_ms_p50": stats["total_p50_s"] * 1e3,
        "gateway.outside_ms_p50": (client_p50 - stats["total_p50_s"]) * 1e3,
        "wire.bytes_per_frame": (
            (c["net_bytes_in_total"] + c["net_bytes_out_total"])
            / max(1.0, c["net_results_total"])),
    }


def pool_figures(info) -> dict:
    return {
        "pool.submit_us": percentile(info["submit_s"], 50) * 1e6,
        "pool.queue_wait_ms_p50": percentile(info["queue_wait_s"], 50) * 1e3,
        "pool.decode_ms_p50": percentile(info["decode_s"], 50) * 1e3,
        "pool.decode_ms_p99": percentile(info["decode_s"], 99) * 1e3,
    }


def side_pass(wl, seed: int, sizes):
    """A short traced pass of ``wl``'s code through a gateway."""
    side = dataclasses.replace(wl, kind="closed")
    code = wmod.code_of(side)
    count = int(side.cap_fps * (sizes.warmup_s + _SIDE_PASS_S)) + 2
    fs = frames_mod.make_frames(code, side.ebno_db, count, seed, salt=2)
    rec = wmod.Record(len(fs), code.n)
    setups, win, late, stats = asyncio.run(wmod.wire_phase(
        side, fs, rec, sizes, _SIDE_PASS_S, 0, count, True, 1, 0))
    return fs, rec, setups[0], win, stats


def chrome_trace(path, generator: probes.Spans, program_spans) -> None:
    """Write both processes' spans as one Chrome trace file."""
    everything = [(1, s) for s in generator.items] + \
        [(2, tuple(s)) for s in program_spans]
    if not everything:
        return
    origin = min(s[1] for _, s in everything)
    tids = {}
    events = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": name}}
        for pid, name in ((1, "generator"), (2, "program"))
    ]
    for pid, (name, start, end, thread) in everything:
        tid = tids.setdefault((pid, thread), len(tids) + 1)
        events.append({
            "name": name, "ph": "X", "pid": pid, "tid": tid,
            "ts": (start - origin) * 1e6, "dur": max(0.0, end - start) * 1e6,
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
