"""The ``serve`` workload: ``python -m repro.serve`` under open-loop load.

Set-up writes a result store, starts the server on it in its own process
and warms a hot set of 64 keys.  The timed window then sends seeded
Poisson arrivals at :data:`RATE` requests/s from one asyncio thread over
two keep-alive connections, without waiting for answers (open loop):

* 80% ask for a hot key (memory tier);
* 10% ask for a key that only the store holds, each once (store tier);
* 5% ask for a hot program on a machine it was never priced on
  (compile-cache hit, price-cache miss);
* 5% ask for a program never compiled (compile-cache miss).

Cold keys (store and computed) go on one connection and hot keys on the
other: the server answers a connection's requests in order, so this split
makes the memory-tier latency measure interference through the shared
server process, not queueing behind a computation on the same connection.
Each request is timed from when it was due.  A run whose generator fell
more than :data:`LATE_LIMIT_MS` behind at the 99th percentile, or whose
backlog at the end of the window exceeds :data:`BACKLOG_LIMIT`, is
invalid, and so is any answer other than 200.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import shutil
import select
import selectors
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

from repro.explore import ResultStore, evaluate_point
from repro.serve.protocol import PredictRequest
from repro.serve.service import PredictionService
from repro.suite import all_entries
from repro.system import machine_names

import common
import hostspeed

RATE = 300.0                    # requests/s, Poisson arrivals
HOT_KEYS = 64
MIX = (("hot", 0.80), ("store", 0.10), ("new_machine", 0.05),
       ("new_params", 0.05))
TIER_OF = {"hot": "memory", "store": "store", "new_machine": "computed",
           "new_params": "computed"}
SIZES = sorted({2 ** k for k in range(4, 13)}
               | {3 * 2 ** k for k in range(3, 11)})
PROCS = (4, 8, 16, 32, 64)
#: Client-side figures reported as ``serve.<name>`` per-layer metrics.
CLIENT_METRICS = ("calls", "memory_count", "store_count", "computed_count",
                  "memory_p50_us", "store_p50_us", "computed_p50_ms",
                  "cached_p99_us", "late_p99_ms", "backlog_end", "shed",
                  "in_flight_mean")
BURST_EVERY_S = 0.1
BURST_GAP_S = 0.012
LATE_LIMIT_MS = 25.0
BACKLOG_LIMIT = 30
START_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 10.0


def _payload(app, size, nprocs, machine) -> dict:
    return {"app": app, "size": size, "nprocs": nprocs, "machine": machine}


def _key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _request_bytes(body: bytes) -> bytes:
    return (b"POST /predict HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body)


def expected_body(payload: dict) -> tuple:
    """What ``/predict`` must answer, computed in this process."""
    request = PredictRequest.from_payload(payload)
    result = evaluate_point(request.point, mode="predict",
                            program=request.program)
    return result, json.loads(json.dumps(
        PredictionService._predict_payload(result)))


class ServeLoad:
    name = "serve"
    HEADLINES = ("cached_p50_us", "cached_p90_us", "cold_p50_ms",
                 "cold_p90_ms")

    def __init__(self, seed: int, seconds: float, traced: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tmpdir = tempfile.mkdtemp(prefix="serve-", dir=common.OUT_DIR)
        self.store_path = os.path.join(self.tmpdir, "store.jsonl")
        self.spans_path = os.path.join(self.tmpdir, "server-spans.jsonl")
        self.server = None
        self.expected: dict[str, dict] = {}
        self.responses: list = []
        self._plan_keys(seed)
        self.schedule = self._make_schedule(seconds)
        self._write_store()
        try:
            self._start_server()
            self._warm()
        except BaseException:
            self.close()
            raise

    # -- set-up -----------------------------------------------------------

    def _plan_keys(self, seed: int) -> None:
        rng = random.Random(seed)
        machines = machine_names()
        programs = [(app, size, p) for app in all_entries() for size in SIZES
                    for p in PROCS if size >= 4 * p]
        rng.shuffle(programs)
        self.hot = [_payload(*program, rng.choice(machines))
                    for program in programs[:HOT_KEYS]]
        new_machine = [_payload(*program, m)
                       for program, hot in zip(programs[:HOT_KEYS], self.hot)
                       for m in machines if m != hot["machine"]]
        rng.shuffle(new_machine)
        rest = programs[HOT_KEYS:]
        half = len(rest) // 2
        new_params = [_payload(*program, rng.choice(machines))
                      for program in rest[:half]]
        store = [_payload(*program, m) for program in rest[half:]
                 for m in machines]
        rng.shuffle(store)
        self.pools = {"new_machine": new_machine, "new_params": new_params,
                      "store": store}

    def _make_schedule(self, seconds: float) -> list:
        """(due offset, kind, payload) in due order; exact mix shares."""
        rng = random.Random(self.seed * 7919 + 1)
        dues = []
        t = rng.expovariate(RATE)
        while t < seconds:
            dues.append(t)
            t += rng.expovariate(RATE)
        kinds = []
        for kind, share in MIX[1:]:
            kinds += [kind] * round(share * len(dues))
        kinds += ["hot"] * (len(dues) - len(kinds))
        rng.shuffle(kinds)
        taken = defaultdict(int)
        schedule = []
        for due, kind in zip(dues, kinds):
            if kind == "hot":
                payload = rng.choice(self.hot)
            else:
                pool = self.pools[kind]
                if taken[kind] >= len(pool):
                    raise SystemExit(f"serve: --seconds {seconds:g} needs "
                                     f"more {kind} keys than the pool has")
                payload = pool[taken[kind]]
                taken[kind] += 1
            schedule.append((due, kind, payload))
        return schedule

    def _write_store(self) -> None:
        """The store-tier keys the schedule asks for, and nothing else."""
        store = ResultStore(self.store_path)
        for _, kind, payload in self.schedule:
            if kind == "store":
                result, body = expected_body(payload)
                store.add(result)
                self.expected[_key(payload)] = body

    def _start_server(self) -> None:
        if self.traced:
            cmd = [sys.executable, "-u",
                   os.path.join(common.BENCH_DIR, "serve_launcher.py"),
                   "--spans-out", self.spans_path, "--"]
        else:
            cmd = [sys.executable, "-u", "-m", "repro.serve"]
        cmd += ["--port", "0", "--store", self.store_path]
        self.server = subprocess.Popen(
            cmd, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, text=True, preexec_fn=_default_sigint)
        ready, _, _ = select.select([self.server.stdout], [], [],
                                    START_TIMEOUT_S)
        line = self.server.stdout.readline() if ready else ""
        match = re.search(r"http://([^:]+):(\d+)", line)
        if not match:
            self._stop_server()
            raise SystemExit(f"serve: server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def _warm(self) -> None:
        async def warm():
            conn = await _Connection.open(self.host, self.port)
            try:
                for payload in self.hot:
                    status, body = await conn.call(
                        json.dumps(payload).encode())
                    if status != 200:
                        raise SystemExit(f"serve: warm-up got {status}")
            finally:
                await conn.close()
        asyncio.run(warm())

    # -- the timed window ---------------------------------------------------

    def rounds_for(self, seconds: float) -> float:
        return self.seconds

    def run(self, seconds: float, calibrate: bool = False) -> dict:
        """Play the schedule; the window starts at the first due time."""
        cpu_before = _cpu_seconds(self.server.pid)
        if self.traced:
            # drop what set-up and warm-up recorded in the server
            self.server.send_signal(signal.SIGUSR1)
        sampler = hostspeed.Sampler() if calibrate else None
        start, backlog_end, end = _run_precise(self._play(sampler))
        cpu = _cpu_seconds(self.server.pid) - cpu_before
        peak = _peak_rss_mb(self.server.pid)
        shed = self._shed_total()
        self._stop_server()
        stats = self._latency_stats()
        fast, slow = stats["memory_p50_us"] / 1e3, stats["computed_p50_ms"]
        if sampler is not None:
            # each latency rescaled by the host speed around its due time
            fast, slow = (
                common.quantile([(received - due) * 1e3
                                 / sampler.slowness(due, received)
                                 for due, _, _, _, received, body, status
                                 in self.responses
                                 if status == 200 and _tier_of(body) == tier],
                                0.5)
                for tier in ("memory", "computed"))
        samples = {
            "fast_path_ms": [fast],
            "slow_path_ms": [slow],
            "cached_p50_us": [stats["memory_p50_us"]],
            "cached_p90_us": [stats["memory_p90_us"]],
            "cold_p50_ms": [stats["computed_p50_ms"]],
            "cold_p90_ms": [stats["computed_p90_ms"]],
        }
        if sampler is not None:
            samples["raw_fast_path_ms"] = [stats["memory_p50_us"] / 1e3]
            samples["raw_slow_path_ms"] = [stats["computed_p50_ms"]]
        self.window = (start, end)
        # Little's law: summed time in flight over the window
        in_flight = stats.pop("latency_sum_s") / (end - start)
        self.client = dict(stats, backlog_end=backlog_end, shed=shed,
                           calls=len(self.responses),
                           in_flight_mean=in_flight)
        result = {
            "samples": samples,
            "phases": [("window", start, end)],
            "wall_s": cpu,
            "window_s": end - start,
            "peak_rss_mb": peak,
            "attempted": len(self.responses),
            "digest": common.digest(sorted(
                {(r[2], r[5].decode()) for r in self.responses})),
            "client": self.client,
        }
        if self.traced:
            result["trace"] = self._server_trace()
        return result

    def _burst_offsets(self) -> set:
        """Indices of requests after which a calibration burst runs: one
        every :data:`BURST_EVERY_S`, in a gap of at least :data:`BURST_GAP_S`
        before the next request, so no request waits for a burst."""
        after = set()
        next_at = 0.0
        dues = [due for due, _, _ in self.schedule]
        for index, (due, following) in enumerate(zip(dues, dues[1:])):
            if due >= next_at and following - due >= BURST_GAP_S:
                after.add(index)
                next_at = due + BURST_EVERY_S
        return after

    async def _play(self, sampler=None):
        conns = {"hot": await _Connection.open(self.host, self.port),
                 "cold": await _Connection.open(self.host, self.port)}
        queues = {name: asyncio.Queue() for name in conns}
        answered = 0

        async def reader(name):
            # answers come back in request order on each connection
            nonlocal answered
            conn, queue = conns[name], queues[name]
            lost = False
            while True:
                item = await queue.get()
                if item is None:
                    return
                status, body = 0, b""
                if not lost:
                    try:
                        status, body = await conn.read_response()
                    except (asyncio.IncompleteReadError, ConnectionError):
                        lost = True     # the server closed the connection
                due, sent, kind, payload = item
                self.responses.append((due, sent, _key(payload), kind,
                                       time.perf_counter(), body, status))
                answered += 1

        bursts = self._burst_offsets() if sampler is not None else set()
        readers = [asyncio.create_task(reader(name)) for name in conns]
        start = time.perf_counter() + 0.05
        for index, (offset, kind, payload) in enumerate(self.schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            name = "hot" if kind == "hot" else "cold"
            queues[name].put_nowait((due, time.perf_counter(), kind, payload))
            conns[name].send(json.dumps(payload).encode())
            if index in bursts:
                # half the gap for the answer to arrive, then the burst
                await asyncio.sleep(BURST_GAP_S / 2)
                sampler.bursts.append((time.perf_counter(),
                                       hostspeed.burst()))
        backlog_end = len(self.schedule) - answered
        for queue in queues.values():
            queue.put_nowait(None)
        try:
            await asyncio.wait_for(asyncio.gather(*readers), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass                # unanswered requests fail the checks
        for conn in conns.values():
            await conn.close()
        end = max([r[4] for r in self.responses] + [due])
        return start, backlog_end, end

    def _latency_stats(self) -> dict:
        by_tier = defaultdict(list)
        late = []
        latency_sum = 0.0
        for due, sent, key, kind, received, body, status in self.responses:
            late.append(sent - due)
            latency_sum += received - due
            if status != 200:
                continue
            by_tier[_tier_of(body)].append(received - due)
        q = common.quantile
        return {
            "memory_count": len(by_tier["memory"]),
            "store_count": len(by_tier["store"]),
            "computed_count": len(by_tier["computed"]),
            "memory_p50_us": q(by_tier["memory"], 0.5) * 1e6,
            "store_p50_us": q(by_tier["store"], 0.5) * 1e6,
            "computed_p50_ms": q(by_tier["computed"], 0.5) * 1e3,
            "computed_p90_ms": q(by_tier["computed"], 0.9) * 1e3,
            "memory_p90_us": q(by_tier["memory"], 0.9) * 1e6,
            "cached_p99_us": q(by_tier["memory"], 0.99) * 1e6,
            "late_p99_ms": q(late, 0.99) * 1e3,
            "latency_sum_s": latency_sum,
        }

    def _shed_total(self) -> int:
        async def fetch():
            reader, writer = await asyncio.open_connection(self.host,
                                                           self.port)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n"
                         b"Connection: close\r\n\r\n")
            data = await reader.read()
            writer.close()
            return data.decode("utf-8", "replace")
        text = asyncio.run(fetch())
        return int(sum(float(line.rsplit(" ", 1)[1])
                       for line in text.splitlines()
                       if line.startswith("repro_shed_total")))

    def _server_trace(self) -> dict:
        import tracing
        with open(self.spans_path + ".meta.json") as fh:
            meta = json.load(fh)
        spans = tracing.read_spans(self.spans_path)
        window = self.window
        analysis = tracing.analyse(spans, meta["calls"], meta["counts"],
                                   window[1] - window[0], window=window)
        metrics = analysis["metrics"]
        for name in CLIENT_METRICS:
            metrics[f"serve.{name}"] = self.client[name]
        return {
            "metrics": metrics,
            "sum_check": analysis["sum_check"],
            "phase_shares": {"window": {
                layer: metrics[f"{layer}.share"] for layer in tracing.LAYERS}},
            "patched": meta["patched"],
            "not_restored": meta["not_restored"],
            "spans": len(spans),
        }

    # -- output checks --------------------------------------------------------

    def check(self) -> list[str]:
        failures = []
        late_p99 = self.client["late_p99_ms"]
        if late_p99 > LATE_LIMIT_MS:
            failures.append(f"invalid run: generator p99 lateness "
                            f"{late_p99:.1f} ms > {LATE_LIMIT_MS} ms")
        if self.client["backlog_end"] > BACKLOG_LIMIT:
            failures.append(f"invalid run: backlog "
                            f"{self.client['backlog_end']} > {BACKLOG_LIMIT}"
                            f" at the end of the window")
        if len(self.responses) != len(self.schedule):
            failures.append(f"{len(self.schedule) - len(self.responses)} "
                            f"requests never answered")
        seen: dict[str, bytes] = {}
        for due, sent, key, kind, received, body, status in self.responses:
            if status != 200:
                failures.append(f"{kind} {key}: HTTP {status}")
                continue
            tier = _tier_of(body)
            if tier != TIER_OF[kind]:
                failures.append(f"{kind} {key}: served from {tier}, "
                                f"planned {TIER_OF[kind]}")
            if seen.setdefault(key, _untiered(body)) != _untiered(body):
                failures.append(f"{key}: answers differ between requests")
        for key, body in seen.items():
            if key not in self.expected:
                _, self.expected[key] = expected_body(json.loads(key))
            if json.loads(body) != self.expected[key]:
                failures.append(f"{key}: payload differs from evaluate_point")
        return failures

    def close(self) -> None:
        self._stop_server()
        shutil.rmtree(self.tmpdir, ignore_errors=True)

    def _stop_server(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=DRAIN_TIMEOUT_S + 5)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()
        self.server = None


def _default_sigint() -> None:
    """A shell that starts this benchmark in the background makes its
    children ignore SIGINT; the server stops on SIGINT, so undo that."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _run_precise(coroutine):
    """``asyncio.run`` on a select()-based loop: epoll rounds timer waits up
    to whole milliseconds, select() waits to the microsecond, so requests
    leave closer to their due times."""
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def _tier_of(body: bytes) -> str:
    match = re.match(rb'\{"served_from":"([a-z]+)"', body)
    return match.group(1).decode() if match else "?"


def _untiered(body: bytes) -> bytes:
    """The answer without its leading ``served_from`` field."""
    return re.sub(rb'^\{"served_from":"[a-z]+",', b"{", body)


def _cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class _Connection:
    """One keep-alive HTTP/1.1 connection with pipelined requests."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    def send(self, body: bytes) -> None:
        self.writer.write(_request_bytes(body))

    async def read_response(self) -> tuple[int, bytes]:
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def call(self, body: bytes) -> tuple[int, bytes]:
        self.send(body)
        await self.writer.drain()
        return await self.read_response()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
