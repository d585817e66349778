"""Decode benchmark: one command, three workloads, every output checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload wire-576 --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing anywhere;
``--trace 1`` runs the workload half untraced and half with timing probes,
plus stage runs, and reports the per-layer metrics instead (see
``layers.py``; a Chrome trace lands in ``perfbench/out/``).  ``--smoke``
shrinks a run to a few seconds with every check still on.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it say the same for people.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: name -> unit of the end-to-end metrics every workload reports.
END_TO_END = {
    "throughput_fps": "frames/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_frame": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _program_importable() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def _frames_shed(wl, phases) -> int:
    """Shed decisions in the run (one server per phase; one inproc process)."""
    import probes

    counts = [probes.shed_count(p[3]["counters"]) for p in phases]
    return counts[-1] if wl.kind == "inproc" else sum(counts)


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """One benchmark run; returns the result object (not yet printed)."""
    import layers
    import probes
    import verify
    import workloads as wmod
    from frames import make_frames

    wl = wmod.WORKLOADS[workload]
    sizes = wmod.Sizes.smoke() if smoke else wmod.Sizes()
    driver = wmod.run_inproc if wl.kind == "inproc" else wmod.run_wire
    fs, rec, phases = driver(wl, seed, seconds, sizes, trace)
    wire = wl.kind != "inproc"
    sample = max(4, int(round(wl.sample * sizes.sample_scale)))
    # the iteration budget is the program's default, as the service reports
    max_iterations = int(phases[-1][3]["max_iterations"])
    checked = [(fs, rec, wire, _frames_shed(wl, phases))]
    paced = wl.kind == "paced"

    if not trace:
        setups, win, _late, _info = phases[0]
        m = wmod.window_metrics(rec, win, paced)
        metrics = {k: m[k] for k in END_TO_END if k in m}
        metrics["setup_s"] = wmod.median_setup(setups)["setup_s"]
        units = END_TO_END
        notes = [
            f"{m['frames']} frames returned in the {win.t1 - win.t0:.2f} s "
            f"window; {m['samples']} latency samples, p90 "
            f"{m['latency_p90_ms']:.2f} ms, p99 {m['latency_p99_ms']:.2f} ms "
            f"(reported, not gated); "
            f"{len(setups)} cold starts"
            + ("; input pool exhausted, window cut short"
               if win.exhausted else ""),
        ]
    else:
        base = wmod.window_metrics(rec, phases[0][1], paced)
        setups, win, late, info = phases[-1]
        traced = wmod.window_metrics(rec, win, paced)
        metrics = dict(wmod.median_setup(setups or phases[0][0]))
        metrics.pop("setup_s")
        metrics.update(layers.pool_figures(info))
        program_spans = list(info["spans"])
        if wire:
            metrics.update(layers.gateway_figures(rec, win, info))
            version = info["version"]
        else:
            s_fs, s_rec, s_setup, s_win, s_stats = layers.side_pass(
                wl, seed, sizes)
            metrics["setup.gateway_ready_s"] = s_setup["setup.gateway_ready_s"]
            metrics.update(layers.gateway_figures(s_rec, s_win, s_stats))
            program_spans += s_stats["spans"]
            version = s_stats["version"]
            checked.append((s_fs, s_rec, True,
                            probes.shed_count(s_stats["counters"])))
        c = info["counters"]
        metrics["engine.frames_per_step"] = (
            c["serve_slot_iterations"] / max(1.0, c["serve_engine_steps"]))
        metrics["engine.frames_shed"] = sum(x[3] for x in checked)
        spans = probes.Spans()
        in_window = rec.sent & (rec.te >= win.t0) & (rec.te <= win.t1)
        for i in map(int, (in_window).nonzero()[0]):
            spans.items.append(("client.request", rec.ts[i], rec.te[i], 0))
        stage_fs = make_frames(fs.code, wl.ebno_db, sizes.stage_frames, seed,
                               salt=1)
        metrics.update(layers.stage_runs(
            wl, stage_fs, max_iterations, metrics["engine.frames_per_step"],
            version, spans))
        metrics["client.cpu_ms_per_frame"] = traced["gen_cpu_ms_per_frame"]
        metrics["gen.late_p99_ms"] = (
            layers.percentile(late, 99) * 1e3 if late else 0.0)
        if paced:  # the offered rate fixes throughput; the cost is CPU
            metrics["trace.overhead_pct"] = (
                (traced["cpu_ms_per_frame"] - base["cpu_ms_per_frame"])
                / base["cpu_ms_per_frame"] * 100.0)
        else:
            metrics["trace.overhead_pct"] = (
                (base["throughput_fps"] - traced["throughput_fps"])
                / base["throughput_fps"] * 100.0)
        units = {k: u for k, (u, _b) in layers.PER_LAYER.items()}
        metrics = {k: metrics[k] for k in units}
        wmod.OUT_DIR.mkdir(exist_ok=True)
        trace_path = wmod.OUT_DIR / f"trace-{workload}-seed{seed}.json"
        layers.chrome_trace(trace_path, spans, program_spans)
        notes = [
            f"untraced half {base['throughput_fps']:.1f} frames/s, traced "
            f"half {traced['throughput_fps']:.1f} frames/s "
            f"({traced['samples']} latency samples)",
            f"Chrome trace: {trace_path.relative_to(ROOT)}",
        ]

    attempted = failed = 0
    problems = []
    for c_fs, c_rec, c_wire, shed in checked:
        report = verify.check_outputs(
            c_fs, c_rec.outputs(), max_iterations=max_iterations,
            fixed=wl.fixed, wire=c_wire, frames_shed=shed, sample=sample,
            seed=seed,
        )
        attempted += c_rec.attempted
        failed += report.failed + c_rec.unanswered()
        problems += report.problems
        notes.append(f"checks: {c_rec.attempted} frames, "
                     f"{report.sampled} against the reference decoder")
    return {
        "notes": notes,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                k: {"value": float(v), "unit": units[k]}
                for k, v in metrics.items()
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for a fast end-to-end check")
    args = parser.parse_args(argv)
    if not _program_importable():
        print(f"perfbench: the program's sources are missing ({SRC}/repro); "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wmod

    if args.workload not in wmod.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wmod.WORKLOADS)}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              smoke=args.smoke)
    res = out["result"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: attempted {res['attempted']}, "
          f"failed {res['failed']}")
    for note in out["notes"]:
        print("  " + note)
    for problem in out["problems"]:
        print("  CHECK FAILED: " + problem)
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
