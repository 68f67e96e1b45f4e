"""Launching, driving and stopping the program under test.

The program is always a separate process tree (a ``repro.cli serve`` or
``cluster`` server, or the in-process solve host ``gas_host.py``), so set-up
time is measured from launch and peak memory excludes the load generator.
The load generator drives it closed-loop: each connection waits for a reply
before sending its next line.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.transports import request_lines_over_tcp

from probe import LOOP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

STOP_TIMEOUT_S = 30.0


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` (Linux ``/proc``)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Program:
    """One launched program process tree."""

    def __init__(
        self, argv: Sequence[str], stdin_pipe: bool = False, cpu: Optional[int] = None
    ) -> None:
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            list(argv),
            cwd=str(ROOT),
            env=_env(),
            stdin=subprocess.PIPE if stdin_pipe else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        if cpu is not None:
            os.sched_setaffinity(self.process.pid, {cpu})
        self._tree: List[int] = []

    def read_json_line(self, key: str) -> object:
        """Skip stdout lines until a JSON object carrying ``key``."""
        assert self.process.stdout is not None
        while True:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"program exited (code {self.process.poll()}) before {key!r}"
                )
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict) and key in payload:
                return payload[key]

    def peak_rss_mb(self) -> float:
        """Sum of per-process peak RSS over the live tree, in MiB."""
        self._tree = [self.process.pid] + _descendants(self.process.pid)
        return sum(_peak_rss_kb(pid) for pid in self._tree) / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; wait for the whole tree."""
        tree = self._tree or [self.process.pid] + _descendants(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in tree[1:]:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.02)


class _CpuProbe:
    """One ``probe.py`` pinned to one CPU."""

    def __init__(self, cpu: int) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(cpu)],
            cwd=str(ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.times: List[float] = []
        self.cpu_s: List[float] = []

    def refresh(self) -> None:
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        samples = json.loads(self.process.stdout.readline())
        self.times = [at for at, _cpu in samples]
        self.cpu_s = [cpu for _at, cpu in samples]

    def close(self) -> None:
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.close()
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class SpeedProbe:
    """A ``probe.py`` on each CPU: the host's speed over any window.

    :meth:`slowdown` is the probe loop's median CPU time inside a window
    over its time on the reference host, which runs the loop at 2 * 10**7
    iterations per CPU second.  A time measured in that window, divided by
    the slowdown, is the time the reference host would have taken; a rate
    is multiplied by it.  Work pinned to one CPU is judged by that CPU's
    probe; work spread over all of them by the mean of their slowdowns.
    """

    REFERENCE_S = LOOP / 2e7
    #: Fewest samples one window is judged on; a shorter window borrows
    #: the samples nearest its middle.
    MIN_SAMPLES = 8
    #: Most CPUs probed (each probe keeps about a twentieth of its CPU).
    MAX_CPUS = 8

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))[: self.MAX_CPUS]
        self._probes: Dict[int, _CpuProbe] = {}
        try:
            for cpu in self.cpus:
                self._probes[cpu] = _CpuProbe(cpu)
        except BaseException:
            self.close()
            raise

    def slowdown(self, start: float, end: float, cpu: Optional[int] = None) -> float:
        """How much slower than the reference host ``cpu`` (default: every
        CPU, averaged) ran in ``[start, end]`` (``time.perf_counter``)."""
        return statistics.fmean(
            self._cpu_slowdown(self._probes[c], start, end)
            for c in (self.cpus if cpu is None else [cpu])
        )

    def _cpu_slowdown(self, probe: _CpuProbe, start: float, end: float) -> float:
        if not probe.times or probe.times[-1] < end:
            probe.refresh()
        lo = bisect.bisect_left(probe.times, start)
        hi = bisect.bisect_right(probe.times, end)
        if hi - lo < self.MIN_SAMPLES:
            middle = bisect.bisect_left(probe.times, 0.5 * (start + end))
            lo = max(0, middle - self.MIN_SAMPLES // 2)
            hi = min(len(probe.times), lo + self.MIN_SAMPLES)
        return statistics.median(probe.cpu_s[lo:hi]) / self.REFERENCE_S

    def close(self) -> None:
        for probe in self._probes.values():
            probe.close()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# ---------------------------------------------------------------------------
# TCP servers (serve / cluster)
# ---------------------------------------------------------------------------
class Connection:
    """One persistent line-protocol connection: send a line, await its reply."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120.0)
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def request(self, line: str) -> str:
        self.sock.sendall((line + "\n").encode("utf-8"))
        reply = self.reader.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """A TCP program with its client connections."""

    def __init__(self, argv: Sequence[str], connections: int) -> None:
        self.program = Program(argv)
        try:
            self.port = int(self.program.read_json_line("listening")["port"])  # type: ignore[index]
            self.connections = [Connection(self.port) for _ in range(connections)]
        except BaseException:
            self.program.stop()
            raise

    def scrape(self, op: str) -> Dict[str, object]:
        """One ``{"op": ...}`` control round-trip on its own connection."""
        lines = request_lines_over_tcp(
            "127.0.0.1", self.port, [json.dumps({"op": op})], timeout=60.0
        )
        return json.loads(lines[0])

    def run(self, lines: Sequence[str]) -> Tuple[List[Tuple[float, str]], float, float]:
        """Closed loop: connection ``k`` sends lines ``k, k+C, k+2C, ...``.

        Returns ``(latency_s, reply)`` per line in input order, the pass's
        start (``time.perf_counter``) and the wall time from the first send
        to the last reply.  Replies are kept raw; decoding them happens
        after the timed window.
        """
        width = len(self.connections)
        results: List[Optional[Tuple[float, str]]] = [None] * len(lines)
        errors: List[BaseException] = []
        start = threading.Barrier(width + 1)
        clock = time.perf_counter

        def drive(k: int) -> None:
            conn = self.connections[k]
            start.wait()
            try:
                for i in range(k, len(lines), width):
                    sent = clock()
                    reply = conn.request(lines[i])
                    results[i] = (clock() - sent, reply)
            except BaseException as exc:  # re-raised on the caller's thread
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(k,)) for k in range(width)]
        for thread in threads:
            thread.start()
        began = clock()
        start.wait()
        for thread in threads:
            thread.join()
        wall = clock() - began
        if errors:
            raise errors[0]
        return results, began, wall  # type: ignore[return-value]

    def close(self) -> None:
        for conn in self.connections:
            conn.close()
        self.program.stop()


def serve_argv(executor: str, workers: int, metrics: bool) -> List[str]:
    argv = [
        sys.executable, "-m", "repro.cli", "serve", "--transport", "tcp",
        "--port", "0", "--executor", executor, "--workers", str(workers),
    ]
    return argv + (["--metrics"] if metrics else [])


def cluster_argv(backends: int, workers: int, session_cache: int) -> List[str]:
    return [
        sys.executable, "-m", "repro.cli", "cluster", "--backends", str(backends),
        "--workers", str(workers), "--session-cache", str(session_cache),
        "--port", "0",
    ]


def start_server(
    argv: Sequence[str], connections: int, warmup: Sequence[str]
) -> Tuple[Server, float]:
    """Launch, connect, send the warm-up lines; returns the set-up seconds."""
    server = Server(argv, connections)
    try:
        replies, _began, _wall = server.run(warmup)
        for _latency, reply in replies:
            if not json.loads(reply).get("ok"):
                raise RuntimeError(f"warm-up request failed: {reply[:300]}")
    except BaseException:
        server.close()
        raise
    return server, time.perf_counter() - server.program.launched


# ---------------------------------------------------------------------------
# The gas-large solve host
# ---------------------------------------------------------------------------
class Host:
    """``gas_host.py``: in-process ``repro.api.solve`` behind a stdio pipe,
    pinned to ``cpu`` so that one probe follows the CPU it solves on."""

    def __init__(self, traced: bool, cpu: int) -> None:
        argv = [sys.executable, str(HERE / "gas_host.py")]
        self.program = Program(
            argv + (["--trace"] if traced else []), stdin_pipe=True, cpu=cpu
        )

    def request(self, line: str) -> Dict[str, object]:
        assert self.program.process.stdin is not None
        self.program.process.stdin.write(line + "\n")
        self.program.process.stdin.flush()
        return self.program.read_json_line("reply")  # type: ignore[return-value]

    def close(self) -> None:
        self.program.stop()


def start_host(traced: bool, cpu: int, warmup: Sequence[str]) -> Tuple[Host, float]:
    host = Host(traced, cpu)
    try:
        for line in warmup:
            reply = host.request(line)
            if not reply["outcome"]["ok"]:  # type: ignore[index]
                raise RuntimeError(f"warm-up solve failed: {reply}")
    except BaseException:
        host.close()
        raise
    return host, time.perf_counter() - host.program.launched
