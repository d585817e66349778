"""Program side of the wire workloads: service, admission and gateway.

Run as ``python3 perfbench/server.py --code ID --batch B [--fixed]
[--trace]`` from the repository root.  It builds a ``DecodeService`` from
the code registry, an ``AdmissionController`` with one unlimited tenant
and a ``DecodeGateway`` on an ephemeral port, all through the library API
with its defaults (the iteration budget too), then prints one JSON
``ready`` line with the port and the monotonic time each set-up phase
ended.  Commands arrive one per line on stdin: ``stats`` answers with
registry counters and the service's iteration budget (and, with
``--trace``, the probes' timings and spans); ``quit`` or end of input
closes the gateway and the service and exits.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.codes.registry import default_registry  # noqa: E402
from repro.net.admission import AdmissionController, TenantPolicy  # noqa: E402
from repro.net.gateway import DecodeGateway  # noqa: E402
from repro.net.metrics import NetMetrics  # noqa: E402
from repro.serve.pool import DecodeService  # noqa: E402

import probes  # noqa: E402

T_IMPORT = time.monotonic()

TENANT = "bench"


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def stats(service, code_id, traced_service, traced_admission, spans):
    registry = service.metrics.registry
    out = {"event": "stats", "counters": probes.counters(registry),
           "max_iterations": service.max_iterations}
    if traced_service is not None:
        phases = registry.get("net_request_seconds")
        out.update(
            submit_s=traced_service.submit_s,
            queue_wait_s=traced_service.queue_wait_s,
            decode_s=traced_service.decode_s,
            admission_s=traced_admission.admit_s,
            respond_p50_s=phases.percentile(
                50, tenant=TENANT, code_id=code_id, phase="respond"),
            total_p50_s=phases.percentile(
                50, tenant=TENANT, code_id=code_id, phase="total"),
            spans=spans.items,
        )
    return out


async def serve(args) -> None:
    registry = default_registry()
    registry.get(args.code)
    t_code = time.monotonic()
    service = DecodeService.from_registry(
        [args.code], registry=registry, batch_size=args.batch,
        fixed=args.fixed,
    )
    t_service = time.monotonic()
    admission = AdmissionController(
        {TENANT: TenantPolicy(rate=1e12, burst=1e12)})
    net_metrics = NetMetrics(registry=service.metrics.registry)
    spans = traced_service = traced_admission = None
    front, gate = service, admission
    if args.trace:
        spans = probes.Spans()
        front = traced_service = probes.TracedService(service, spans)
        gate = traced_admission = probes.TracedAdmission(admission, spans)
    gateway = DecodeGateway(front, gate, metrics=net_metrics)
    host, port = await gateway.start()
    emit({
        "event": "ready", "pid": os.getpid(), "host": host, "port": port,
        "t_start": T_START, "t_import": T_IMPORT, "t_code": t_code,
        "t_service": t_service, "t_gateway": time.monotonic(),
    })

    loop = asyncio.get_running_loop()
    commands: "asyncio.Queue[str]" = asyncio.Queue()

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "quit")

    threading.Thread(target=read_stdin, daemon=True).start()
    try:
        while True:
            cmd = await commands.get()
            if cmd == "stats":
                emit(stats(service, args.code, traced_service,
                           traced_admission, spans))
            elif cmd == "quit":
                break
    finally:
        await gateway.close(drain=True)
        service.close(wait=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--code", required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--fixed", action="store_true")
    parser.add_argument("--trace", action="store_true")
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
