"""Traced server for ``serve_mix --trace 1``.

Runs the same TCP frontend as ``python -m repro.serve`` with the default
configuration and ``--workers``, through public API only, and adds what
the benchmark needs to split a request into layers:

* telemetry armed with :func:`repro.telemetry.collecting`, using a
  collector that also keeps every span observation (the stock one keeps
  count/total/min/max, which gives no percentiles);
* a ``work_fn`` that times each :func:`repro.serve.execute_payload`
  call and maps its items back to request ids;
* a server subclass that records each request's ``submit`` interval.

On SIGTERM or SIGINT it drains the server and writes everything to the
``--dump`` file as JSON.  Usage::

    python3 perfbench/serve_launcher.py --dump out.json --port 0 \
        --workers 2
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time

from benchlib import use_source_tree

use_source_tree()

from repro.serve import FmaServer, ServeConfig, execute_payload  # noqa: E402
from repro.telemetry import (Telemetry, collecting,  # noqa: E402
                             snapshot_to_dict)

DRAIN_TIMEOUT_S = 10.0
KEPT_SPANS = ("serve.stage.queue", "serve.stage.exec",
              "serve.request.total")


class RecordingTelemetry(Telemetry):
    """Telemetry that also keeps each observation of the serve spans."""

    __slots__ = ("samples",)

    def __init__(self) -> None:
        super().__init__()
        self.samples: dict[str, list[int]] = {t: [] for t in KEPT_SPANS}

    def observe(self, tag: str, ns: int) -> None:
        super().observe(tag, ns)
        kept = self.samples.get(tag)
        if kept is not None:
            kept.append(ns)


class TimedWork:
    """``work_fn``: :func:`execute_payload` with its interval recorded
    against the request ids of the payload's items."""

    def __init__(self) -> None:
        self.ids: dict[tuple, object] = {}
        self.records: list[list] = []

    def register(self, req) -> None:
        self.ids[(req.op, req.fmt, req.a, req.b, req.c)] = req.req_id

    def __call__(self, payload: dict) -> list:
        t0 = time.perf_counter_ns()
        out = execute_payload(payload)
        t1 = time.perf_counter_ns()
        op, fmt = payload["op"], payload["fmt"]
        rids = [self.ids.get((op, fmt, a, b, c))
                for a, b, c in payload["items"]]
        self.records.append([t0, t1, op, fmt, rids])
        return out


class TracedServer(FmaServer):
    def __init__(self, config: ServeConfig, work: TimedWork) -> None:
        super().__init__(config)
        self.work = work
        self.submits: list[list] = []

    async def submit(self, req):
        self.work.register(req)
        t0 = time.perf_counter_ns()
        resp = await super().submit(req)
        self.submits.append([req.req_id, t0, time.perf_counter_ns()])
        return resp


async def serve(args, config: ServeConfig, dump: str) -> int:
    work = TimedWork()
    config.work_fn = work
    tel = RecordingTelemetry()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    with collecting(tel):
        srv = TracedServer(config, work)
        await srv.start()
        tcp = await srv.serve_tcp(args.host, args.port)
        host, port = tcp.sockets[0].getsockname()[:2]
        print(f"repro.serve listening on {host}:{port} (traced)",
              flush=True)
        await stop.wait()
        try:
            await asyncio.wait_for(srv.drain(), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            print("drain timed out; dumping what was recorded",
                  file=sys.stderr)
    body = {"telemetry": snapshot_to_dict(tel.snapshot("serve_mix")),
            "samples_ns": tel.samples, "submits": srv.submits,
            "payloads": work.records, "stats": srv.stats}
    with open(dump, "w") as fh:
        json.dump(body, fh)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args()
    return asyncio.run(serve(args, ServeConfig(workers=args.workers),
                             args.dump))


if __name__ == "__main__":
    sys.exit(main())
