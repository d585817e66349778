"""The three workloads and the generator that drives them.

``wire-576`` and ``paced-576`` run the program in its own process
(``server.py``: service, admission and gateway) and load it from this
process over two TCP connections on one asyncio thread.  ``paper-2304``
runs the service and its one submitting thread in their own process
(``inproc.py``), with no wire.  Every workload takes the program's
defaults: no ``kernel=``, no ``backend=`` and no pinned protocol version.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.codes.registry import default_registry
from repro.net.client import AsyncDecodeClient

import frames as frames_mod
import probes
import verify

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: connections from the one generator thread to a wire workload's server
CONNECTIONS = 2


@dataclass(frozen=True)
class Workload(object):
    """One workload: its code, channel, program shape and load."""

    name: str
    kind: str  # "closed", "paced" or "inproc"
    code_id: str
    ebno_db: float
    batch: int
    fixed: bool
    window: int = 16  # closed loop: frames in flight per connection
    rate: float = 50.0  # paced: frames per second over all connections
    inflight: int = 128  # inproc: frames the submitting thread keeps queued
    cap_fps: float = 0.0  # closed loops: input pool = cap_fps * run time
    sample: int = 256  # frames checked against the reference decoder


WORKLOADS = {
    w.name: w
    for w in (
        # the wire, handoffs and per-request work bound throughput here;
        # decoding at 4 dB takes about two iterations
        Workload(name="wire-576", kind="closed", code_id="wimax-r12-576",
                 ebno_db=4.0, batch=16, fixed=False, cap_fps=2500.0),
        # steps carry one frame, so fixed per-step and per-request costs
        # set latency and CPU; batching by holding frames back loses.  At
        # 100 frames/s the server is 60-70 % busy, so queueing amplifies
        # every slowdown of the shared host (figures in the README)
        Workload(name="paced-576", kind="paced", code_id="wimax-r12-576",
                 ebno_db=4.0, batch=16, fixed=False, rate=50.0),
        # the paper's code: kernel vector work and slot refill do almost
        # all the work, the wire none
        Workload(name="paper-2304", kind="inproc", code_id="wimax-r12-2304",
                 ebno_db=2.0, batch=64, fixed=True, cap_fps=1200.0,
                 sample=48),
    )
}


@dataclass(frozen=True)
class Sizes(object):
    """How much a run does; ``smoke()`` shrinks it to seconds."""

    # cold starts before the window, and as many after it: setup_s is the
    # median of all, which then spans more than one stretch of host drift
    cold_starts: int = 4
    warmup_s: float = 1.5
    stage_frames: int = 256
    sample_scale: float = 1.0

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(cold_starts=1, warmup_s=0.2, stage_frames=32,
                   sample_scale=0.05)


def code_of(wl: Workload):
    return default_registry().get(wl.code_id)


# ----------------------------------------------------------------------
# program processes
# ----------------------------------------------------------------------
class Program(object):
    """A program-side child process speaking JSON lines on stdout."""

    def __init__(self, script: str, args: List[str]) -> None:
        self.t_launch = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(ROOT),
        )
        self.pid = self.proc.pid
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def event(self, timeout: float = 120.0) -> dict:
        """The next JSON line the program printed."""
        while True:
            try:
                line = self._lines.get(timeout=timeout)
            except queue.Empty:
                raise RuntimeError(f"{self.proc.args[1]}: no reply in "
                                   f"{timeout:g}s") from None
            if line is None:
                raise RuntimeError(
                    f"{self.proc.args[1]} exited with code {self.proc.wait()}"
                )
            if line.startswith("{"):
                return json.loads(line)

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def stop(self) -> None:
        """Ask the program to quit; kill it if it does not, and reap it."""
        try:
            self.send("quit")
            self.proc.stdin.close()
        except (BrokenPipeError, OSError, ValueError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)


# ----------------------------------------------------------------------
# per-frame records
# ----------------------------------------------------------------------
class Record(object):
    """What came back for each frame index, and when."""

    def __init__(self, count: int, n: int) -> None:
        self.bits = np.zeros((count, n // 8), dtype=np.uint8)
        self.iters = np.zeros(count, dtype=np.int64)
        self.conv = np.zeros(count, dtype=bool)
        self.err = np.zeros(count, dtype=bool)
        self.sent = np.zeros(count, dtype=bool)
        self.ts = np.full(count, np.nan)
        self.te = np.full(count, np.nan)
        self.due = np.full(count, np.nan)

    def put(self, i: int, bits, converged, iterations) -> None:
        self.bits[i] = np.packbits(np.asarray(bits, dtype=np.uint8))
        self.conv[i] = bool(converged)
        self.iters[i] = int(iterations)

    @property
    def attempted(self) -> int:
        return int(self.sent.sum())

    def outputs(self) -> verify.Outputs:
        idx = np.flatnonzero(self.sent & ~self.err & ~np.isnan(self.te))
        return verify.Outputs(index=idx, bits=self.bits[idx],
                              converged=self.conv[idx],
                              iterations=self.iters[idx])

    def unanswered(self) -> int:
        """Frames sent that errored or never came back."""
        return int((self.sent & (self.err | np.isnan(self.te))).sum())


@dataclass
class Window(object):
    """One timed window and what the program spent in it."""

    t0: float
    t1: float
    cpu_s: float
    peak_rss_mb: float
    gen_cpu_s: float
    exhausted: bool = False


def window_metrics(rec: Record, win: Window, paced: bool) -> dict:
    """Throughput, latency and CPU over one window."""
    te = rec.te
    ok = rec.sent & ~rec.err & ~np.isnan(te)
    done = ok & (te >= win.t0) & (te <= win.t1)
    span = win.t1 - win.t0
    if paced:
        due = rec.due
        lat = (te - due)[ok & (due >= win.t0) & (due < win.t1)]
    else:
        lat = (te - rec.ts)[done]
    count = int(done.sum())
    if count == 0 or lat.size == 0:
        raise RuntimeError("no frame completed inside the timed window")
    return {
        "frames": count,
        "samples": int(lat.size),
        "throughput_fps": count / span,
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(lat, 90)) * 1e3,
        "latency_p99_ms": float(np.percentile(lat, 99)) * 1e3,
        "cpu_ms_per_frame": win.cpu_s / count * 1e3,
        "peak_rss_mb": win.peak_rss_mb,
        "gen_cpu_ms_per_frame": win.gen_cpu_s / count * 1e3,
    }


# ----------------------------------------------------------------------
# wire workloads
# ----------------------------------------------------------------------
def _server_args(wl: Workload, trace: bool) -> List[str]:
    args = ["--code", wl.code_id, "--batch", str(wl.batch)]
    if wl.fixed:
        args.append("--fixed")
    if trace:
        args.append("--trace")
    return args


async def _connect(ready: dict, wl: Workload) -> AsyncDecodeClient:
    return await AsyncDecodeClient.connect(
        ready["host"], ready["port"], tenant="bench", code_id=wl.code_id
    )


async def cold_start_server(wl: Workload, fs, rec: Record, probe: int,
                            trace: bool = False):
    """Launch a fresh server and time it until its first decoded frame.

    Returns ``(program, ready line, client, set-up phases)``; the client
    is connected and has decoded frame ``probe``.
    """
    prog = Program("server.py", _server_args(wl, trace))
    try:
        ready = prog.event()
        client = await _connect(ready, wl)
        rec.sent[probe] = True
        rec.ts[probe] = time.monotonic()
        result = await client.decode(fs.llrs(probe))
        t_first = time.monotonic()
    except BaseException:
        prog.stop()
        raise
    rec.te[probe] = t_first
    rec.put(probe, result.bits, result.converged, result.iterations)
    phases = {
        "setup_s": t_first - prog.t_launch,
        "setup.import_s": ready["t_import"] - prog.t_launch,
        "setup.code_build_s": ready["t_code"] - ready["t_import"],
        "setup.service_start_s": ready["t_service"] - ready["t_code"],
        "setup.gateway_ready_s": ready["t_gateway"] - ready["t_service"],
        "setup.first_frame_ms": (t_first - ready["t_gateway"]) * 1e3,
    }
    return prog, ready, client, phases


async def _send(client, fs, rec: Record, i: int, late: list,
                ready_at: float) -> None:
    rec.sent[i] = True
    t = time.monotonic()
    rec.ts[i] = t
    late.append(t - ready_at)
    try:
        result = await client.decode(fs.llrs(i))
    except Exception:  # a typed ServeError or a dropped connection
        rec.err[i] = True
        rec.te[i] = time.monotonic()
        return
    rec.te[i] = time.monotonic()
    rec.put(i, result.bits, result.converged, result.iterations)


async def _window_probe(pid: int, t0: float, t1: float) -> Window:
    """Read the program's CPU at ``t0`` and ``t1``; the window is the span
    between the two readings as they actually happened."""
    await asyncio.sleep(max(0.0, t0 - time.monotonic()))
    cpu0, gen0 = probes.cpu_seconds(pid), time.process_time()
    start = time.monotonic()
    await asyncio.sleep(max(0.0, t1 - time.monotonic()))
    cpu1, gen1 = probes.cpu_seconds(pid), time.process_time()
    end = time.monotonic()
    return Window(start, end, cpu1 - cpu0, probes.peak_rss_mb(pid),
                  gen1 - gen0)


async def closed_loop(wl: Workload, clients, fs, rec: Record, first: int,
                      last: int, warmup: float, seconds: float, pid: int):
    """``window`` frames in flight per connection until the window ends."""
    t0 = time.monotonic() + warmup
    t1 = t0 + seconds
    state = {"next": first}
    late: list = []

    async def worker(client) -> None:
        ready_at = time.monotonic()
        while time.monotonic() < t1:
            i = state["next"]
            if i >= last:
                return
            state["next"] = i + 1
            await _send(client, fs, rec, i, late, ready_at)
            ready_at = rec.te[i]

    probe = asyncio.ensure_future(_window_probe(pid, t0, t1))
    await asyncio.gather(*(worker(c) for c in clients
                           for _ in range(wl.window)))
    win = await probe
    win.exhausted = state["next"] >= last
    if win.exhausted:
        win.t1 = float(np.nanmax(rec.te[first:last]))
    return win, late[len(clients) * wl.window:]


async def paced_loop(wl: Workload, clients, fs, rec: Record, first: int,
                     warmup: float, seconds: float, pid: int):
    """One frame every ``1/rate`` seconds, alternating connections."""
    total = int(round(wl.rate * (warmup + seconds)))
    start = time.monotonic() + 0.05
    t0 = start + warmup
    t1 = t0 + seconds
    late: list = []
    probe = asyncio.ensure_future(_window_probe(pid, t0, t1))
    tasks = []
    for j in range(total):
        due = start + j / wl.rate
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        i = first + j
        rec.due[i] = due
        tasks.append(asyncio.ensure_future(
            _send(clients[j % len(clients)], fs, rec, i, late, due)))
    await asyncio.gather(*tasks)
    return await probe, late


def pool_size(wl: Workload, sizes: Sizes, seconds: float) -> int:
    """Frames the warm-up and the window of one phase may consume."""
    span = sizes.warmup_s + seconds
    if wl.kind == "paced":
        return int(round(wl.rate * span)) + 2
    return int(wl.cap_fps * span) + 2


async def wire_phase(wl, fs, rec, sizes, seconds, first, last, trace,
                     cold_before, cold_after):
    """Cold-start a server ``cold_before`` times and load the last one;
    then cold-start it ``cold_after`` more times.

    Frames ``first .. last`` are this phase's: the probes of the cold
    starts before, the load, and the probes of those after at the end.
    """
    setups = []
    probe = first
    for k in range(cold_before):
        prog, ready, client, phases = await cold_start_server(
            wl, fs, rec, probe, trace=trace)
        probe += 1
        setups.append(phases)
        if k < cold_before - 1:
            await client.close()
            prog.stop()
    try:
        clients = [client] + [await _connect(ready, wl)
                              for _ in range(CONNECTIONS - 1)]
        if wl.kind == "paced":
            win, late = await paced_loop(wl, clients, fs, rec, probe,
                                         sizes.warmup_s, seconds, prog.pid)
        else:
            win, late = await closed_loop(wl, clients, fs, rec, probe,
                                          last - cold_after, sizes.warmup_s,
                                          seconds, prog.pid)
        prog.send("stats")
        stats = prog.event()
        stats["version"] = client.version  # as negotiated by HELLO
        for c in clients:
            await c.close()
    finally:
        prog.stop()
    for probe in range(last - cold_after, last):
        prog, _ready, client, phases = await cold_start_server(
            wl, fs, rec, probe, trace=trace)
        setups.append(phases)
        await client.close()
        prog.stop()
    return setups, win, late, stats


def run_wire(wl: Workload, seed: int, seconds: float, sizes: Sizes,
             trace: bool):
    """One run of a wire workload.

    Untraced: cold starts, one timed window, more cold starts.  Traced:
    an untraced half window, then a half window against a server whose
    service and admission objects are wrapped by timing probes, each
    after one cold start.
    """
    code = code_of(wl)
    halves = (seconds / 2.0, seconds / 2.0) if trace else (seconds,)
    before, after = (1, 0) if trace else (sizes.cold_starts,) * 2
    per_phase = [pool_size(wl, sizes, s) + before + after for s in halves]
    fs = frames_mod.make_frames(code, wl.ebno_db, sum(per_phase), seed)
    rec = Record(len(fs), code.n)
    phases = []
    first = 0
    for k, half in enumerate(halves):
        traced = trace and k == len(halves) - 1
        last = first + per_phase[k]
        phases.append(asyncio.run(wire_phase(
            wl, fs, rec, sizes, half, first, last, traced, before, after)))
        first = last
    return fs, rec, phases


# ----------------------------------------------------------------------
# in-process workload
# ----------------------------------------------------------------------
def _write_inputs(fs, tag: str):
    OUT_DIR.mkdir(exist_ok=True)
    inputs = OUT_DIR / f"{tag}-inputs.i8"
    scales = OUT_DIR / f"{tag}-scales.npy"
    fs.llrs_i8.tofile(inputs)
    np.save(scales, fs.scales)
    return inputs, scales


def cold_start_inproc(wl: Workload, inputs, scales, probe: int):
    """Launch a fresh in-process program; time it to its first frame."""
    args = ["--code", wl.code_id, "--batch", str(wl.batch),
            "--inputs", str(inputs), "--scales", str(scales),
            "--probe", str(probe)]
    if wl.fixed:
        args.append("--fixed")
    prog = Program("inproc.py", args)
    try:
        first = prog.event()
    except BaseException:
        prog.stop()
        raise
    phases = {
        "setup_s": first["t_first"] - prog.t_launch,
        "setup.import_s": first["t_import"] - prog.t_launch,
        "setup.code_build_s": first["t_code"] - first["t_import"],
        "setup.service_start_s": first["t_service"] - first["t_code"],
        "setup.first_frame_ms": (first["t_first"] - first["t_service"]) * 1e3,
    }
    return prog, phases


def _inproc_phase(prog, fs, rec, wl, first, count, warmup, seconds, trace,
                  tag):
    out = OUT_DIR / f"{tag}-out-{first}.rec"
    prog.send("go " + json.dumps({
        "first": first, "count": count, "inflight": wl.inflight,
        "warmup": warmup, "seconds": seconds, "trace": trace,
        "out": str(out),
    }))
    done = prog.event(timeout=warmup + seconds + 120)
    z = np.fromfile(out, dtype=probes.record_dtype(fs.code.n))
    out.unlink()
    if z.shape[0] != done["submitted"]:
        raise RuntimeError(f"{z.shape[0]} output records for "
                           f"{done['submitted']} frames submitted")
    idx = first + z["j"]
    rec.sent[idx] = True
    rec.bits[idx] = z["bits"]
    rec.iters[idx] = z["iters"]
    rec.conv[idx] = z["conv"]
    rec.err[idx] = z["err"]
    rec.ts[idx] = z["ts"]
    rec.te[idx] = z["te"]
    late = z["late"][~np.isnan(z["late"])].tolist()
    win = Window(done["t0"], done["t1"], done["cpu_s"], done["peak_rss_mb"],
                 done["gen_cpu_s"], exhausted=done["exhausted"])
    if win.exhausted:
        win.t1 = float(np.nanmax(rec.te[idx]))
    return win, late, done


def run_inproc(wl: Workload, seed: int, seconds: float, sizes: Sizes,
               trace: bool):
    """One run of the in-process workload (same shape as :func:`run_wire`)."""
    code = code_of(wl)
    halves = (seconds / 2.0, seconds / 2.0) if trace else (seconds,)
    per_phase = [pool_size(wl, sizes, s) for s in halves]
    before, after = (1, 0) if trace else (sizes.cold_starts,) * 2
    total = before + sum(per_phase) + after
    fs = frames_mod.make_frames(code, wl.ebno_db, total, seed)
    rec = Record(len(fs), code.n)
    tag = f"{wl.name}-{os.getpid()}"
    inputs, scales = _write_inputs(fs, tag)
    phases = []
    try:
        setups = []
        for k in range(before):
            prog, setup = cold_start_inproc(wl, inputs, scales, k)
            setups.append(setup)
            if k < before - 1:
                prog.stop()
        try:
            first = before
            for k, half in enumerate(halves):
                traced = trace and k == len(halves) - 1
                win, late, done = _inproc_phase(
                    prog, fs, rec, wl, first, per_phase[k], sizes.warmup_s,
                    half, traced, tag)
                phases.append((setups if k == 0 else [], win, late, done))
                first += per_phase[k]
        finally:
            prog.stop()
        for probe in range(total - after, total):
            prog, setup = cold_start_inproc(wl, inputs, scales, probe)
            setups.append(setup)  # the first phase's list
            prog.stop()
    finally:
        inputs.unlink()
        scales.unlink()
    return fs, rec, phases


def median_setup(setups: List[dict]) -> dict:
    """Per-key median over several cold starts."""
    keys = setups[0].keys()
    return {k: statistics.median(s[k] for s in setups) for k in keys}
