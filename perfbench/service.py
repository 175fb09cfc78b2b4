"""service-churn: ``repro serve`` as its own process, fed a closed loop.

Per server: the network and similarity table go to JSON files, the
server starts with ``--wal`` (default ``--fsync batch``) and set-up is
timed from spawn until it prints its listening line.  One writer thread
POSTs a churn event, waits until a read shows it, then POSTs the next;
one reader thread GETs ``/assignment`` about every ``READ_EVERY``
seconds.  An event is visible at the first read whose ``events_applied``
covers it; its latency counts from when it was sent.  ``/healthz`` is
not used for this: it counts an event before the view holding it is
swapped in.

The loop is closed because an open loop at 5-20 events/s ran the writer
near saturation whenever the shared host slowed down, and queueing then
made visible latency swing by 0.25-0.89 of its median between runs.

Checks: every POST is acknowledged, every acknowledged event becomes
visible, ``events_failed_total`` stays 0, and the final view's energy
equals an offline evaluation of its assignment on the network with every
acknowledged event applied.
"""

from __future__ import annotations

import queue
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from checks import assignment_from_payload, check_assignment, cold_energy
from inproc import SIZES

from repro.network.constraints import ConstraintSet
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.network.io import save_network
from repro.nvd.io import save_similarity
from repro.service.client import ServiceClient, ServiceError
from repro.stream.events import ChurnConfig, apply_event, random_churn_trace

#: upper bound on the event rate, used only to size the trace.
MAX_RATE = 25.0
#: mean reader period; an unpaced reader starves the writer of the GIL.
#: Each read is placed at a seeded uniform offset inside its period: reads
#: in lockstep with the 20/s posts would quantise visibility to the grid.
READ_EVERY = 0.05
#: how long past the event window every event must have become visible.
DRAIN_TIMEOUT = 30.0
#: how long a server may take to start listening.
START_TIMEOUT = 120.0
ESCALATIONS = ("cost_jump", "stranded", "node_churn", "edge_churn", "mask_churn")
_LISTENING = re.compile(r"listening on http://[^:/]+:(\d+)")


def scrape(client: ServiceClient) -> Dict[str, float]:
    """The ``/metrics`` exposition as {series: value}."""
    values = {}
    for line in client.metrics_text().splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            values[series] = float(value)
    return values


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


class Server:
    """One ``repro serve`` child process, stopped in :meth:`close`."""

    def __init__(self, directory: Path, env: Dict[str, str]) -> None:
        self.log = open(directory / "server.log", "w")
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--network", str(directory / "network.json"),
                "--similarity", str(directory / "similarity.json"),
                "--port", "0",
                "--wal", str(directory / "wal"),
                "--log-level", "warning",
            ],
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            env={**env, "PYTHONUNBUFFERED": "1"},
        )
        self._pump = threading.Thread(target=self._read_stdout, daemon=True)
        self._pump.start()

    def _read_stdout(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line)

    def wait_listening(self) -> int:
        """Block until the listening line; returns the port."""
        deadline = self.spawned + START_TIMEOUT
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not start listening in time")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))

    def close(self, client: ServiceClient = None) -> None:
        """Graceful shutdown when possible, kill otherwise; always reaped."""
        try:
            if client is not None and self.process.poll() is None:
                try:
                    client.shutdown()
                except (ServiceError, OSError):
                    pass
                try:
                    self.process.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self._pump.join(timeout=10)
            self.process.stdout.close()
            self.log.close()


class ClosedLoop:
    """One writer and one paced reader against one server.

    The writer posts an event, waits until a read covers it, then posts
    the next.  The reader polls ``GET /assignment`` on its own schedule
    throughout and records every view it sees.
    """

    def __init__(self, port: int, events: List, seed: int) -> None:
        self.phase = random.Random(seed)
        self.writer = ServiceClient(port=port, retries=0, timeout=60.0)
        self.reader = ServiceClient(port=port, retries=0, timeout=60.0)
        self.events = events
        #: each acknowledged event and its send time, in order.
        self.acked_events: List = []
        self.acked_sent: List[float] = []
        self.ack_s: List[float] = []
        self.refused = 0
        self.acked = 0
        self.applied = 0
        self.writer_done = False
        self.window_s = 0.0
        self.seen = threading.Condition()
        #: (completion time, events_applied, events acked at that moment)
        self.reads: List[tuple] = []
        self.read_s: List[float] = []
        self.read_failures = 0
        self.final = None

    def write(self, budget: float, deadline: float) -> None:
        start = time.perf_counter()
        for event in self.events:
            if time.perf_counter() - start >= budget:
                break
            sent = time.perf_counter()
            try:
                self.writer.post_events([event])
            except (ServiceError, OSError):
                self.refused += 1
                continue
            self.ack_s.append(time.perf_counter() - sent)
            self.acked_events.append(event)
            self.acked_sent.append(sent)
            with self.seen:
                self.acked += 1
                target = self.acked
                self.seen.wait_for(
                    lambda: self.applied >= target,
                    timeout=max(0.0, deadline - time.perf_counter()),
                )
        self.window_s = time.perf_counter() - start
        with self.seen:
            self.writer_done = True

    def read(self, start: float, deadline: float) -> None:
        tick = 0
        while True:
            due = start + (tick + self.phase.random()) * READ_EVERY
            tick += 1
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            acked = self.acked
            began = time.perf_counter()
            try:
                payload = self.reader.assignment()
            except (ServiceError, OSError):
                self.read_failures += 1
                payload = None
            ended = time.perf_counter()
            if payload is not None:
                self.read_s.append(ended - began)
                self.reads.append((ended, payload["events_applied"], acked))
                self.final = payload
                with self.seen:
                    self.applied = payload["events_applied"]
                    self.seen.notify_all()
                    if self.writer_done and self.applied >= self.acked:
                        return
            if ended > deadline:
                return

    def visible_s(self) -> List[float]:
        """Send-to-visible latency of each acknowledged, visible event."""
        latencies = []
        cursor = 0
        for position, sent in enumerate(self.acked_sent):
            while cursor < len(self.reads) and self.reads[cursor][1] < position + 1:
                cursor += 1
            if cursor == len(self.reads):
                break
            latencies.append(self.reads[cursor][0] - sent)
        return latencies


def run_server(
    seed: int,
    index: int,
    seconds: float,
    size: str,
    workdir: Path,
    env,
) -> dict:
    """Start one server, drive it for ``seconds`` of events, check, stop."""
    directory = workdir / f"server-{index}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    params = dict(SIZES["stream-churn"][size])
    params.pop("events")
    config = RandomNetworkConfig(seed=seed, **params)
    network = random_network(config)
    similarity = random_similarity(config)
    events = random_churn_trace(
        network,
        ChurnConfig(
            events=max(20, round(MAX_RATE * seconds)),
            seed=seed * 64 + index,
            constraint_weight=0.2,
        ),
    )
    save_network(network, directory / "network.json")
    save_similarity(similarity, directory / "similarity.json")

    server = Server(directory, env)
    client = None
    try:
        port = server.wait_listening()
        setup_s = time.perf_counter() - server.spawned
        client = ServiceClient(port=port, retries=0, timeout=60.0)
        before = scrape(client)
        loop = ClosedLoop(port, events, seed * 64 + index)
        start = time.perf_counter()
        deadline = start + seconds + DRAIN_TIMEOUT
        writer = threading.Thread(target=loop.write, args=(seconds, deadline))
        reader = threading.Thread(target=loop.read, args=(start, deadline))
        writer.start()
        reader.start()
        writer.join()
        reader.join()
        after = scrape(client)
        rss_mb = vm_hwm_mb(server.process.pid)
    finally:
        server.close(client)
        shutil.rmtree(directory, ignore_errors=True)

    def delta(series: str) -> float:
        return after.get(series, 0.0) - before.get(series, 0.0)

    visible = loop.visible_s()
    problems = []
    failed = loop.refused + loop.read_failures
    if loop.refused:
        problems.append(f"{loop.refused} event POST(s) refused")
    invisible = loop.acked - len(visible)
    if invisible:
        failed += invisible
        problems.append(f"{invisible} acknowledged event(s) never visible")
    event_failures = int(delta("repro_events_failed_total"))
    if event_failures:
        failed += event_failures
        problems.append(f"events_failed_total rose by {event_failures}")

    # Offline evaluation of the final view on the trace-applied network.
    shadow = (network.copy(), similarity.copy(), ConstraintSet())
    for event in loop.acked_events:
        apply_event(shadow[0], shadow[1], event, shadow[2])
    final = loop.final or {"assignment": {}, "energy": float("nan")}
    view_problems = check_assignment(
        shadow[0],
        shadow[1],
        assignment_from_payload(shadow[0], final["assignment"]),
        final["energy"],
        shadow[2],
    )
    if view_problems:
        failed += 1
        problems.extend(view_problems[:3])

    solves = delta("repro_solves_total")
    backlog = [acked - applied for _, applied, acked in loop.reads]
    return {
        "setup_s": setup_s,
        "rss_mb": rss_mb,
        "visible_s": visible,
        "ack_s": loop.ack_s,
        "read_s": loop.read_s,
        "window_s": loop.window_s,
        "acked": loop.acked,
        "backlog_max": max(backlog, default=0),
        "energy": final["energy"],
        "energy_ratio": final["energy"] / cold_energy(*shadow),
        "attempted": loop.acked + loop.refused + len(loop.read_s)
        + loop.read_failures + 1,
        "failed": failed,
        "problems": problems,
        "solves": solves,
        "events_applied": delta("repro_events_applied_total"),
        "solve_seconds": delta("repro_solve_seconds_sum"),
        "wal_appends": delta("repro_wal_appends_total"),
        "escalations": {
            reason: delta(f'repro_escalations_total{{reason="{reason}"}}')
            for reason in ESCALATIONS
        },
    }

