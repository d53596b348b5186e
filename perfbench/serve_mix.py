"""``serve_mix``: the user path, JSON lines over TCP, open loop.

One client process on one connection drives ``python -m repro.serve``
(``SERVER_FLAGS``, otherwise the default configuration) with the seeded
mixed stream of :func:`repro.serve.make_requests`: fma pcs/fcs/classic,
dot fcs and acc pcs, vectors of 4-16 elements:

* the fixed rate ``FIXED_RATE`` (about a fifth of the knee on a 2-core
  host, so that the shared CPU stays well below saturation and a slow
  spell of the host is not amplified by queueing) gives ``latency_ms``,
  the median latency of its least disturbed window, and a p99 in the
  details;
* the same phase gives ``throughput_per_s``: requests answered per
  server CPU-second in its least disturbed ``CPU_WINDOW_S`` window
  (:func:`benchlib.best_window_rate`), the server's capacity at this
  mix on one core;
* a geometric rate ladder from ``LADDER_START`` upward finds the highest rate
  whose p99 stays within ``P99_LIMIT_MS`` with no failure and no
  growing backlog (:func:`benchlib.ladder_max_rate`), reported in the
  details.

Every request is timed from the moment it was due, not from when the
client got round to sending it, so a stall is charged to every request
it delays; how late the generator ran is reported as ``loadgen.late_ms``.
Every response is checked bit for bit against
:func:`repro.serve.reference_result` after the server has stopped.
"""

from __future__ import annotations

import asyncio
import gc
import json
import pickle
import signal
import subprocess
import sys
import time

from benchlib import (ALLOWED_CPUS, HERE, OUT, ROOT, BenchError,
                      best_window_rate, child_env, cpu_seconds_pid,
                      ladder_max_rate, median, peak_rss_mb_pid, percentile,
                      pin, samples_beyond, stop_process, window_percentiles)
from spans import SELF_TIME_TOLERANCE, Tracer

SERVER_FLAGS = ["--port", "0", "--workers", "2"]
#: the client and the server are pinned to the same CPU, so that every
#: run places them the same way
SERVE_CPU = min(ALLOWED_CPUS, default=0)
FIXED_RATE = 400.0
LADDER_START = 700.0
LADDER_STEP = 1.15
LADDER_RUNGS = 10
P99_LIMIT_MS = 50.0
#: shares of ``--seconds`` for the fixed phase and for the whole ladder
FIXED_SHARE, LADDER_SHARE = 0.6, 0.4
#: server CPU sampling period during the fixed phase
CPU_WINDOW_S = 1.5
#: missed rungs the ladder runs again before it stops (a stall of the
#: shared host can sink one short rung at any rate)
LADDER_RETRIES = 2
#: a rung whose in-flight count passes this is stopped as a growing
#: backlog, well below the server's 1024-request admission bound
MAX_OUTSTANDING = 400
WARM_PER_PAIR = 12
WARM_BURST_S = 0.5
SETUP_SAMPLES = 3
#: the fixed phase is cut into this many windows for latency_ms (the
#: best window's median) and the details' p99 (the median window's)
LATENCY_WINDOWS = 4
RESPONSE_TIMEOUT_S = 30.0

MIX_PAIRS = (("fma", "pcs"), ("fma", "fcs"), ("fma", "classic"),
             ("dot", "fcs"), ("acc", "pcs"))


class Phase:
    """Requests of one phase: due offsets, ids and wire lines."""

    def __init__(self) -> None:
        self.offsets_ns: list[int] = []
        self.gids: list[int] = []
        self.lines: list[bytes] = []
        self.due_ns: dict[int, int] = {}
        self.sent_ns: dict[int, int] = {}
        self.aborted = False


class Client:
    """Open-loop JSON-lines client on one connection."""

    def __init__(self) -> None:
        self.requests: dict[int, object] = {}     # gid -> Request
        self.responses: dict[int, dict] = {}
        self.recv_ns: dict[int, int] = {}
        self.waiting: set[int] = set()
        self._drained: asyncio.Event | None = None
        self._next_gid = 0
        self.reader = self.writer = self._task = None

    # -- requests ------------------------------------------------------

    def phase(self, stream) -> Phase:
        """Encode ``[(offset_s, Request)]`` into a phase with fresh
        connection-unique ids."""
        from repro.serve import encode_request

        ph = Phase()
        for offset, req in stream:
            gid = self._next_gid
            self._next_gid += 1
            obj = encode_request(req)
            obj["id"] = gid
            self.requests[gid] = req
            ph.offsets_ns.append(int(offset * 1e9))
            ph.gids.append(gid)
            ph.lines.append(json.dumps(obj).encode() + b"\n")
        return ph

    # -- connection ----------------------------------------------------

    async def connect(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            host, port, limit=1 << 22)
        self._task = asyncio.ensure_future(self._read())

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _read(self) -> None:
        reader = self.reader
        while True:
            line = await reader.readline()
            if not line:
                return
            t = time.perf_counter_ns()
            obj = json.loads(line)
            gid = obj.get("id")
            self.recv_ns[gid] = t
            self.responses[gid] = obj
            self.waiting.discard(gid)
            if not self.waiting and self._drained is not None:
                self._drained.set()

    async def run(self, ph: Phase, max_outstanding: int | None = None,
                  ) -> Phase:
        """Send ``ph`` on its schedule and wait for every response."""
        self._drained = asyncio.Event()
        gc.collect()
        gc.disable()     # no client collector pauses inside a phase
        try:
            return await self._send(ph, max_outstanding)
        finally:
            gc.enable()

    async def _send(self, ph: Phase, max_outstanding) -> Phase:
        writer = self.writer
        clock = time.perf_counter_ns
        t0 = clock() + 5_000_000
        n = len(ph.gids)
        i = 0
        while i < n:
            now = clock()
            while i < n and t0 + ph.offsets_ns[i] <= now:
                if (max_outstanding is not None
                        and len(self.waiting) > max_outstanding):
                    ph.aborted = True
                    break
                gid = ph.gids[i]
                ph.due_ns[gid] = t0 + ph.offsets_ns[i]
                self.waiting.add(gid)
                ph.sent_ns[gid] = clock()
                writer.write(ph.lines[i])
                i += 1
            if ph.aborted:
                break
            await writer.drain()
            if i < n:
                delay = (t0 + ph.offsets_ns[i] - clock()) / 1e9
                await asyncio.sleep(max(0.0, delay))
        if self.waiting:
            self._drained.clear()
            try:
                await asyncio.wait_for(self._drained.wait(),
                                       RESPONSE_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass
        self._drained = None
        return ph

    # -- outcomes ------------------------------------------------------

    def latencies_ms(self, ph: Phase) -> list[float]:
        """Due-time latency of each request; failed or lost requests
        count as infinitely late."""
        out = []
        for gid, due in ph.due_ns.items():
            obj = self.responses.get(gid)
            if obj is None or obj.get("status") != "ok":
                out.append(float("inf"))
            else:
                out.append((self.recv_ns[gid] - due) / 1e6)
        return out

    def failures(self, ph: Phase) -> int:
        return sum(1 for gid in ph.due_ns
                   if self.responses.get(gid, {}).get("status") != "ok")

    def late_ms(self, ph: Phase) -> list[float]:
        return [(ph.sent_ns[g] - ph.due_ns[g]) / 1e6 for g in ph.due_ns]


# -- streams ----------------------------------------------------------


def stream(seed: int, rate: float, seconds: float):
    from repro.serve import LoadSpec, make_requests

    return make_requests(LoadSpec(n_requests=max(1, int(rate * seconds)),
                                  rate_hz=rate, seed=seed))


def warm_stream(seed: int):
    """``WARM_PER_PAIR`` requests of every (op, fmt) pair, all due at
    once, so each pair's first batches and kernels are built."""
    from repro.serve import LoadSpec, make_requests

    out = []
    for k, pair in enumerate(MIX_PAIRS):
        spec = LoadSpec(n_requests=WARM_PER_PAIR, rate_hz=0.0,
                        seed=seed * 31 + k, mix=(pair + (1,),))
        out.extend(make_requests(spec))
    return out


# -- the server -------------------------------------------------------


class Server:
    """One server child process (plain or traced)."""

    def __init__(self, traced: bool, tag: str) -> None:
        OUT.mkdir(exist_ok=True)
        self.dump = OUT / f"serve-{tag}.dump.json"
        self.log = open(OUT / f"serve-{tag}.log", "w")
        if traced:
            argv = [sys.executable, str(HERE / "serve_launcher.py"),
                    "--dump", str(self.dump), *SERVER_FLAGS]
        else:
            argv = [sys.executable, "-m", "repro.serve", *SERVER_FLAGS]
        self.traced = traced
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self.log, env=child_env(),
                                     cwd=ROOT, text=True)
        pin(self.proc.pid, {SERVE_CPU})
        banner = self.proc.stdout.readline()
        if not banner.startswith("repro.serve listening on "):
            self.stop()
            raise BenchError(f"server did not start: {banner!r}")
        hostport = banner.split()[3]
        self.host, port = hostport.rsplit(":", 1)
        self.port = int(port)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_pid(self.proc.pid)

    def stop(self) -> dict | None:
        """Stop and wait; returns the traced server's dump.

        The plain server is ended with SIGTERM, which ends it at once:
        every response has arrived by then, and a graceful drain is no
        part of what is measured.  The traced launcher drains on SIGTERM
        and writes its dump."""
        rc = stop_process(self.proc, signal.SIGTERM)
        self.log.close()
        if not self.traced:
            return None
        if rc != 0:
            raise BenchError(f"traced server exited with status {rc}")
        with open(self.dump) as fh:
            return json.load(fh)


async def start_warm(client_seed: int, traced: bool, tag: str):
    """Spawn a server, connect, warm every (op, fmt) pair and run a
    short burst at the fixed rate; returns ``(server, client, phases,
    seconds)``, the seconds being this set-up's wall time."""
    t0 = time.perf_counter()
    srv = Server(traced, tag)
    client = Client()
    try:
        await client.connect(srv.host, srv.port)
        warm = await client.run(client.phase(warm_stream(client_seed)))
        burst = await client.run(client.phase(
            stream(client_seed + 1, FIXED_RATE, WARM_BURST_S)))
    except BaseException:
        await client.close()
        srv.stop()
        raise
    return srv, client, [warm, burst], time.perf_counter() - t0


# -- verification -----------------------------------------------------


def _check(item):
    gid, req, obj = item
    from repro.serve import reference_result

    if obj is None or obj.get("status") != "ok":
        return gid, None      # a failure, counted separately
    status, *rest = reference_result(req)
    if status != "ok" or int(obj["result"], 16) != rest[0]:
        return gid, f"result {obj.get('result')} != reference {rest}"
    return gid, None


VERIFY_WORKERS = 2


def verify(client: Client, phases) -> list[str]:
    """Check every ok response against the faithful oracle, on
    ``VERIFY_WORKERS`` child processes (the server has stopped by now).

    The children are plain subprocesses fed pickled items on stdin and
    waited for here; a multiprocessing pool would also start a resource
    tracker process that outlives the benchmark."""
    items = [(gid, client.requests[gid], client.responses.get(gid))
             for ph in phases for gid in ph.due_ns]
    pin(0, ALLOWED_CPUS)
    argv = [sys.executable, str(HERE / "serve_mix.py"), "--verify-worker"]
    procs = []
    try:
        for k in range(VERIFY_WORKERS):
            procs.append(subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                env=child_env(), cwd=ROOT))
        shares = [pickle.dumps(items[k::VERIFY_WORKERS])
                  for k in range(VERIFY_WORKERS)]
        for proc, share in zip(procs, shares):
            proc.stdin.write(share)
            proc.stdin.close()
        checked = []
        for proc in procs:
            out = proc.stdout.read()
            if proc.wait(timeout=RESPONSE_TIMEOUT_S) != 0:
                raise BenchError("a verification worker failed "
                                 f"(status {proc.returncode})")
            checked.extend(pickle.loads(out))
    finally:
        for proc in procs:
            stop_process(proc, signal.SIGKILL)
    return [f"serve request {gid}: {why}" for gid, why in checked if why]


def _verify_worker() -> int:
    """``serve_mix.py --verify-worker``: read pickled items on stdin,
    write the pickled list of ``_check`` results on stdout."""
    from benchlib import use_source_tree

    use_source_tree()
    items = pickle.load(sys.stdin.buffer)
    pickle.dump([_check(item) for item in items], sys.stdout.buffer)
    sys.stdout.flush()
    return 0


# -- the workload -----------------------------------------------------


def ladder_rates() -> list[float]:
    return [LADDER_START * LADDER_STEP ** k
            for k in range(1, LADDER_RUNGS + 1)]


def best_window_p50(lat: list[float]) -> float:
    """Median latency of the least disturbed of ``LATENCY_WINDOWS``."""
    return min(window_percentiles(lat, 50, LATENCY_WINDOWS))


def rung_ok(client: Client, ph: Phase) -> tuple[float, bool]:
    """(p99 ms, passed): passed = no failure, not aborted, and no
    growing backlog -- the last quarter's median latency is not more
    than half the latency limit above the first quarter's."""
    lat = client.latencies_ms(ph)
    if not lat:
        return float("inf"), False
    p99 = percentile(lat, 99)
    q = max(1, len(lat) // 4)
    growing = median(lat[-q:]) > median(lat[:q]) + P99_LIMIT_MS / 2
    passed = (not ph.aborted and client.failures(ph) == 0
              and not growing and p99 != float("inf"))
    return p99, passed


async def _run(res, seed: int, seconds: float) -> None:
    setups = []
    for k in range(SETUP_SAMPLES):
        srv, client, warm, took = await start_warm(seed, False, f"s{k}")
        setups.append(took)
        if k < SETUP_SAMPLES - 1:
            await client.close()
            srv.stop()
    try:
        await _load(res, seed, seconds, srv, client, warm, setups)
    finally:
        await client.close()
        srv.stop()


async def _sample_cpu(pid: int, client: Client, done: asyncio.Event,
                      out: list) -> None:
    """Every ``CPU_WINDOW_S``: (server CPU seconds, responses so far)."""
    while True:
        out.append((cpu_seconds_pid(pid), len(client.responses)))
        if done.is_set():
            return
        try:
            await asyncio.wait_for(done.wait(), CPU_WINDOW_S)
        except asyncio.TimeoutError:
            pass


async def _load(res, seed, seconds, srv, client, warm, setups) -> None:
    fixed_s = FIXED_SHARE * seconds
    rung_s = max(1.0, LADDER_SHARE * seconds / LADDER_RUNGS)
    cpu = []
    done = asyncio.Event()
    sampler = asyncio.ensure_future(_sample_cpu(srv.proc.pid, client, done,
                                                cpu))
    fixed = await client.run(client.phase(
        stream(seed, FIXED_RATE, fixed_s)))
    done.set()
    await sampler
    rungs, ladder = [], []
    retries = LADDER_RETRIES
    for k, rate in enumerate(ladder_rates()):
        while True:
            ph = await client.run(
                client.phase(stream(seed + 100 + len(ladder), rate, rung_s)),
                max_outstanding=MAX_OUTSTANDING)
            ladder.append(ph)
            p99, passed = rung_ok(client, ph)
            missed = not passed or p99 > P99_LIMIT_MS
            if not (missed and retries):
                break
            retries -= 1          # a one-off stall gets a second try
        rungs.append((rate, p99, passed))
        if missed:
            break
    rss = srv.peak_rss_mb()

    lat = client.latencies_ms(fixed)
    fixed_p99, fixed_passed = rung_ok(client, fixed)
    max_rate = ladder_max_rate([(FIXED_RATE, fixed_p99, fixed_passed)]
                               + rungs, P99_LIMIT_MS)
    capacity = best_window_rate(cpu)
    phases = warm + [fixed] + ladder
    res.mismatches.extend(verify(client, phases))
    res.attempted = sum(len(ph.due_ns) for ph in phases)
    fixed_failed = client.failures(fixed)
    res.failed = sum(client.failures(ph) for ph in phases)
    late = client.late_ms(fixed)
    res.metric("setup_s", median(setups), "s")
    res.metric("ok_frac", 1.0 - fixed_failed / len(fixed.due_ns), "frac")
    res.metric("peak_rss_mb", rss, "MB")
    res.metric("latency_ms", best_window_p50(lat), "ms")
    res.metric("throughput_per_s", capacity, "1/s")
    res.details.update(
        server_flags=SERVER_FLAGS, fixed_rate=FIXED_RATE,
        ladder={"max_rate_per_s": max_rate,
                "rates": ladder_rates(), "rung_s": rung_s,
                "p99_limit_ms": P99_LIMIT_MS,
                "rungs": [list(r) for r in rungs]},
        setup_samples_s=setups, fixed_samples=len(lat),
        fixed_p50_ms=percentile(lat, 50),
        fixed_window_p50_ms=window_percentiles(lat, 50, LATENCY_WINDOWS),
        fixed_p99_ms=median(window_percentiles(lat, 99, LATENCY_WINDOWS)),
        fixed_samples_beyond_p99_per_window=samples_beyond(
            len(lat) // LATENCY_WINDOWS, 99),
        loadgen_late_ms={"p50": percentile(late, 50),
                         "p99": percentile(late, 99)})
    print(f"serve_mix: fixed {FIXED_RATE:.0f}/s x {len(lat)} "
          f"p50 {percentile(lat, 50):.2f} ms p99 "
          f"{percentile(lat, 99):.2f} ms (late p99 "
          f"{percentile(late, 99):.2f} ms); ladder "
          + " ".join(f"{r:.0f}:{p:.1f}{'' if ok else '!'}"
                     for r, p, ok in rungs)
          + f" -> {max_rate:.0f}/s; {capacity:.0f} requests per "
          f"server CPU-second; setup {setups}", flush=True)


def run(res, seed: int, seconds: float) -> None:
    pin(0, {SERVE_CPU})
    asyncio.run(_run(res, seed, seconds))


# -- traced run -------------------------------------------------------


def _codec_us(client: Client, ph: Phase) -> float:
    """Server-side codec work per request, replayed on the phase's
    lines and responses: ``json.loads`` + ``decode_request`` in,
    ``encode_response`` + ``json.dumps`` out, as the frontend does."""
    from repro.serve import decode_request, decode_response, encode_response

    lines = ph.lines
    resps = [decode_response(client.responses[g]) for g in ph.gids
             if g in client.responses]
    t0 = time.perf_counter_ns()
    for line in lines:
        decode_request(json.loads(line))
    for r in resps:
        json.dumps(encode_response(r), sort_keys=True).encode()
    return (time.perf_counter_ns() - t0) / 1e3 / max(1, len(lines))


def _trace_requests(client: Client, ph: Phase, dump: dict) -> Tracer:
    """One span tree per request: ``client.request`` [due, received]
    with children ``loadgen.late`` [due, sent] and ``serve.submit``
    (the server's submit interval), which holds ``serve.queue``
    [submit, payload start] and ``serve.payload`` (the execute_payload
    call that carried the request).  The root's self time is the
    frontend: socket, JSON codec and event-loop hand-offs."""
    submits = {rid: (t0, t1) for rid, t0, t1 in dump["submits"]}
    payload_of = {}
    for t0, t1, _op, _fmt, rids in dump["payloads"]:
        for rid in rids:
            payload_of[rid] = (t0, t1)
    tr = Tracer()
    for gid, due in ph.due_ns.items():
        if gid not in client.recv_ns:
            continue
        root = tr.add("client.request", due, client.recv_ns[gid], rid=gid)
        tr.add("loadgen.late", due, ph.sent_ns[gid], root, gid)
        if gid in submits:
            s0, s1 = submits[gid]
            sub = tr.add("serve.submit", s0, s1, root, gid)
            if gid in payload_of:
                p0, p1 = payload_of[gid]
                tr.add("serve.queue", s0, p0, sub, gid)
                tr.add("serve.payload", p0, p1, sub, gid)
    return tr


def _oracle_us(client: Client, ph: Phase, n: int = 200) -> float:
    """In-process cost of :func:`repro.serve.reference_result` per
    request, on the phase's first ``n`` requests."""
    from repro.serve import reference_result

    gids = ph.gids[:n]
    t0 = time.perf_counter_ns()
    for gid in gids:
        reference_result(client.requests[gid])
    return (time.perf_counter_ns() - t0) / 1e3 / max(1, len(gids))


async def _fixed_phase(traced: bool, tag: str, seed: int, seconds: float):
    """Start a server, warm it, run the fixed rate for ``seconds`` and
    stop it; returns ``(client, phases, dump)``."""
    srv, client, warm, _ = await start_warm(seed, traced, tag)
    try:
        ph = await client.run(client.phase(
            stream(seed + 7, FIXED_RATE, seconds)))
    finally:
        await client.close()
        dump = srv.stop()
    return client, warm + [ph], dump


async def _run_traced(res, seed: int, seconds: float) -> dict:
    from layers import first_call_s, vector_counters

    first = first_call_s()
    base_client, base_phases, _ = await _fixed_phase(False, "t0", seed,
                                                     0.3 * seconds)
    client, phases, dump = await _fixed_phase(True, "t1", seed,
                                              0.5 * seconds)
    for c, phs in ((base_client, base_phases), (client, phases)):
        res.mismatches.extend(verify(c, phs))
        res.attempted += sum(len(p.due_ns) for p in phs)
        res.failed += sum(c.failures(p) for p in phs)
    ph = phases[-1]
    lat = client.latencies_ms(ph)
    p50 = percentile(lat, 50)
    tr = _trace_requests(client, ph, dump)
    tr.dump(OUT / f"trace-serve_mix-{seed}.jsonl")
    ratio = tr.selftime_ratio()
    if abs(ratio - 1.0) > SELF_TIME_TOLERANCE:
        res.mismatch(f"serve_mix trace self times sum to {ratio:.3f} "
                     f"of the request time")
    samples = dump["samples_ns"]
    counters = dump["telemetry"]["counters"]

    def ms(tag, p):
        return percentile(samples[tag], p) / 1e6

    admitted = counters.get("serve.requests.admitted", 0)
    rejected = sum(v for k, v in counters.items()
                   if k.startswith("serve.requests.rejected."))
    late = client.late_ms(ph)
    payload_ms = [(t1 - t0) / 1e6 for t0, t1, *_ in dump["payloads"]]
    request_p50 = ms("serve.request.total", 50)
    per_name = tr.name_self_ns()
    n = max(1, len(tr.roots()))
    values = {
        "batch.first_call_s": first,
        "fma.oracle_us_per_op": _oracle_us(client, ph),
        "serve.codec_us": _codec_us(client, ph),
        "serve.queue_ms.p50": ms("serve.stage.queue", 50),
        "serve.queue_ms.p99": ms("serve.stage.queue", 99),
        "serve.exec_ms.p50": ms("serve.stage.exec", 50),
        "serve.request_ms.p50": request_p50,
        "serve.request_ms.p99": ms("serve.request.total", 99),
        "serve.frontend_ms": p50 - request_p50,
        "serve.batch_size.mean": admitted / max(
            1, counters.get("serve.batches", 0)),
        "serve.rejected_frac": rejected / max(1, admitted + rejected),
        "serve.payload_ms": median(payload_ms),
        "loadgen.late_ms.p50": percentile(late, 50),
        "loadgen.late_ms.p99": percentile(late, 99),
        "trace.selftime_ratio": ratio,
        "trace.overhead_ratio": best_window_p50(lat) / best_window_p50(
            base_client.latencies_ms(base_phases[-1])),
        "_counters": counters,
        "_self_ms_per_request": {k: v / 1e6 / n
                                 for k, v in per_name.items()},
    }
    vector_counters(values, counters)
    return values


def run_traced(res, seed: int, seconds: float) -> dict:
    pin(0, {SERVE_CPU})
    return asyncio.run(_run_traced(res, seed, seconds))


if __name__ == "__main__":
    if sys.argv[1:] != ["--verify-worker"]:
        sys.exit("usage: serve_mix.py --verify-worker")
    sys.exit(_verify_worker())
