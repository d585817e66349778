"""Program side of the in-process workload: a ``DecodeService`` and its caller.

Run as ``python3 perfbench/inproc.py --code ID --batch B --inputs FILE
--scales FILE --probe INDEX [--fixed]`` from the repository root.  It
builds the service from the code registry, decodes the probe frame and
prints one JSON ``first`` line with the monotonic time each set-up phase
ended.  Then, per ``go {json}`` line on stdin, one submitting thread feeds
frames read from the inputs file (int8 rows, one scale each) and keeps
``inflight`` of them in the service; one output record per frame goes
to a file in blocks, and a JSON ``done`` line reports the window, this
process's CPU from /proc and its peak RSS.  ``quit`` or end of input
closes the service.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import collections  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.codes.registry import default_registry  # noqa: E402
from repro.serve.pool import DecodeService  # noqa: E402

import probes  # noqa: E402

T_IMPORT = time.monotonic()

_CHUNK = 64  # input rows read at a time
_BLOCK = 256  # output records written at a time


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def sleep_until(t: float) -> None:
    delay = t - time.monotonic()
    if delay > 0:
        time.sleep(delay)


def run_phase(service, n, inputs_path, scales, p) -> dict:
    """Feed frames ``first .. first+count`` for ``warmup + seconds``."""
    first, count, inflight = p["first"], p["count"], p["inflight"]
    spans = probes.Spans() if p["trace"] else None
    front = probes.TracedService(service, spans) if spans else service
    # Outputs leave in fixed-size blocks, so this process's RSS holds the
    # same small harness share however many frames the program returns.
    block = np.zeros(_BLOCK, dtype=probes.record_dtype(n))
    state = {"filled": 0}
    lock = threading.Lock()
    slots = threading.Semaphore(inflight)
    freed = collections.deque()
    out_fh = open(p["out"], "wb")

    def finished(future, j, ts, late):
        te = time.monotonic()
        try:
            result = future.result().result
            row = (j, ts, te, late, result.iterations, result.converged,
                   False, np.packbits(result.bits))
        except Exception:  # counted as a failed frame by the benchmark
            row = (j, ts, te, late, 0, False, True, 0)
        with lock:
            block[state["filled"]] = row
            state["filled"] += 1
            if state["filled"] == _BLOCK:
                out_fh.write(block.tobytes())
                state["filled"] = 0
        freed.append(te)
        slots.release()

    t_begin = time.monotonic()
    t0 = t_begin + p["warmup"]
    t1 = t0 + p["seconds"]
    marks = {}

    def timer() -> None:
        # the window is the span between the two CPU readings as they
        # actually happened
        sleep_until(t0)
        marks["cpu0"] = probes.cpu_seconds(os.getpid())
        marks["t0"] = time.monotonic()
        sleep_until(t1)
        marks["cpu1"] = probes.cpu_seconds(os.getpid())
        marks["t1"] = time.monotonic()

    clock = threading.Thread(target=timer, daemon=True)
    clock.start()
    buf = np.empty((_CHUNK, n), dtype=np.int8)
    submitted = 0
    gen_cpu0 = time.thread_time()
    with open(inputs_path, "rb") as fh:
        fh.seek(first * n)
        for j in range(count):
            if time.monotonic() >= t1:
                break
            slots.acquire()
            late = (time.monotonic() - freed.popleft() if freed
                    else float("nan"))
            if j % _CHUNK == 0:
                fh.readinto(buf[: min(_CHUNK, count - j)])
            llrs = buf[j % _CHUNK].astype(np.float64) * scales[first + j]
            ts = time.monotonic()
            future = front.submit(llrs)
            future.add_done_callback(
                functools.partial(finished, j=j, ts=ts, late=late))
            submitted += 1
    gen_cpu = time.thread_time() - gen_cpu0
    for _ in range(inflight):
        slots.acquire()
    clock.join()
    out_fh.write(block[: state["filled"]].tobytes())
    out_fh.close()
    out = {
        "event": "done", "t0": marks["t0"], "t1": marks["t1"],
        "submitted": submitted,
        "exhausted": submitted == count,
        "cpu_s": marks["cpu1"] - marks["cpu0"],
        "peak_rss_mb": probes.peak_rss_mb(os.getpid()),
        "gen_cpu_s": gen_cpu,
        "counters": probes.counters(service.metrics.registry),
        "max_iterations": service.max_iterations,
    }
    if spans is not None:
        out.update(submit_s=front.submit_s, queue_wait_s=front.queue_wait_s,
                   decode_s=front.decode_s, spans=spans.items)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--code", required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--fixed", action="store_true")
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--scales", required=True)
    parser.add_argument("--probe", type=int, required=True)
    args = parser.parse_args()

    registry = default_registry()
    code = registry.get(args.code)
    t_code = time.monotonic()
    service = DecodeService.from_registry(
        [args.code], registry=registry, batch_size=args.batch,
        fixed=args.fixed,
    )
    t_service = time.monotonic()
    n = code.n
    scales = np.load(args.scales)
    with open(args.inputs, "rb") as fh:
        fh.seek(args.probe * n)
        probe = np.fromfile(fh, dtype=np.int8, count=n)
    service.submit(probe.astype(np.float64) * scales[args.probe]).result()
    emit({
        "event": "first", "pid": os.getpid(), "t_start": T_START,
        "t_import": T_IMPORT, "t_code": t_code, "t_service": t_service,
        "t_first": time.monotonic(),
    })
    try:
        for line in sys.stdin:
            cmd, _, rest = line.strip().partition(" ")
            if cmd == "go":
                emit(run_phase(service, n, args.inputs, scales,
                               json.loads(rest)))
            elif cmd == "quit":
                break
    finally:
        service.close(wait=True)


if __name__ == "__main__":
    main()
