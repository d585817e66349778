"""Timing probes the benchmark wraps around the program's objects.

Nothing here reaches inside ``repro``: the traced run hands the gateway
a :class:`TracedService` and a :class:`TracedAdmission` in place of the
real objects, and they time the calls that cross into each layer.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU of every thread of ``pid``, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        stat = fh.read()
    fields = stat[stat.rfind(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Spans(object):
    """In-memory spans: ``(name, start, end, thread)`` in monotonic seconds."""

    def __init__(self) -> None:
        self.items = []

    def add(self, name: str, start: float, end: float) -> None:
        self.items.append((name, start, end, threading.get_ident()))


class TracedService(object):
    """A ``DecodeService`` stand-in that times ``submit`` and each job."""

    def __init__(self, service, spans: Spans) -> None:
        self._service = service
        self._spans = spans
        self.submit_s = []
        self.queue_wait_s = []
        self.decode_s = []

    def submit(self, llrs, *args, **kwargs):
        t0 = time.monotonic()
        future = self._service.submit(llrs, *args, **kwargs)
        t1 = time.monotonic()
        self.submit_s.append(t1 - t0)
        self._spans.add("pool.submit", t0, t1)
        future.add_done_callback(self._finished)
        return future

    def _finished(self, future) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        done = future.result()
        job = done.job
        if job.dispatched_at is None:
            return
        self.queue_wait_s.append(job.dispatched_at - job.enqueued_at)
        self.decode_s.append(done.completed_at - job.dispatched_at)
        self._spans.add("pool.queue_wait", job.enqueued_at, job.dispatched_at)
        self._spans.add("pool.decode", job.dispatched_at, done.completed_at)

    def __getattr__(self, name):
        return getattr(self._service, name)


class TracedAdmission(object):
    """An ``AdmissionController`` stand-in that times ``admit``."""

    def __init__(self, admission, spans: Spans) -> None:
        self._admission = admission
        self._spans = spans
        self.admit_s = []

    def admit(self, *args, **kwargs):
        t0 = time.monotonic()
        decision = self._admission.admit(*args, **kwargs)
        t1 = time.monotonic()
        self.admit_s.append(t1 - t0)
        self._spans.add("gateway.admission", t0, t1)
        return decision

    def __getattr__(self, name):
        return getattr(self._admission, name)


def record_dtype(n: int):
    """One in-process output record: a frame's result and its timings."""
    return np.dtype([
        ("j", "<i8"), ("ts", "<f8"), ("te", "<f8"), ("late", "<f8"),
        ("iters", "<i4"), ("conv", "?"), ("err", "?"),
        ("bits", "u1", (n // 8,)),
    ])


def counters(registry) -> dict:
    """The registry counters the benchmark reads, by name (0 if absent)."""
    out = {}
    for name in ("serve_engine_steps", "serve_slot_iterations",
                 "serve_frames_shed", "net_shed_total", "net_bytes_in_total",
                 "net_bytes_out_total", "net_results_total"):
        inst = registry.get(name)
        out[name] = float(inst.total()) if inst is not None else 0.0
    return out


def shed_count(c: dict) -> int:
    """Shed decisions in a program's ``counters``.

    The service sheds on its own queue fill (``serve_frames_shed``); the
    gateway's admission sheds on the fill it read before submitting
    (``net_shed_total``), which the service applies without counting it.
    A frame shed by both counts twice; any count above 0 fails the run.
    """
    return int(c["serve_frames_shed"] + c["net_shed_total"])
