"""The server under test as a separate process, read through ``/proc``.

:class:`ServerProcess` launches ``python -m repro serve --port 0`` from
the checkout's own ``src`` tree, waits for its ready line, and stops it
with SIGTERM (the server's graceful drain).  CPU and peak memory are
summed over the whole process tree: a fleet's workers are spawned from
an executor thread, so children are found through every task's
``children`` file, not only the main thread's.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

_READY = re.compile(r"serving on http://([^:\s]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")

READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 120.0


class ServerError(RuntimeError):
    """The server failed to start, answer priming, or stop."""


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    pids, stack = [], [root]
    while stack:
        pid = stack.pop()
        pids.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/children") as fh:
                    stack.extend(int(child) for child in fh.read().split())
            except OSError:
                continue
    return pids


def _cpu_ticks(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return 0
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = stat[stat.rindex(")") + 2:].split()
    return int(fields[11]) + int(fields[12])


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


class ServerProcess:
    """One ``repro serve`` process (plus its workers, if any)."""

    def __init__(self, root: Path, serve_args: tuple[str, ...]) -> None:
        self.root = root
        self.serve_args = serve_args
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self._log: collections.deque[str] = collections.deque(maxlen=40)
        self._reader: threading.Thread | None = None
        self._tree: set[int] = set()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *self.serve_args],
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        ready = threading.Event()

        def read() -> None:
            assert self.proc is not None and self.proc.stdout is not None
            for line in self.proc.stdout:
                self._log.append(line.rstrip())
                match = _READY.search(line)
                if match and not ready.is_set():
                    self.host, self.port = match.group(1), int(match.group(2))
                    ready.set()
            ready.set()  # EOF: the process exited

        self._reader = threading.Thread(target=read, daemon=True)
        self._reader.start()
        if not ready.wait(READY_TIMEOUT_S) or self.port == 0:
            self.stop()
            raise ServerError("server did not become ready:\n" + self.log_tail())
        self._tree.update(process_tree(self.proc.pid))

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole tree is gone."""
        if self.proc is None:
            return
        self._tree.update(process_tree(self.proc.pid))
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 10.0
        for pid in self._tree - {self.proc.pid}:
            # Orphaned workers are reaped by init; wait for them to go.
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                while _alive(pid):
                    time.sleep(0.05)
        if self._reader is not None:
            self._reader.join(5.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None

    def log_tail(self) -> str:
        return "\n".join(self._log)

    # -- measurement -----------------------------------------------------

    def tree(self) -> list[int]:
        assert self.proc is not None
        pids = process_tree(self.proc.pid)
        self._tree.update(pids)
        return pids

    def cpu_s(self) -> float:
        """User + system CPU of the live process tree, in seconds."""
        return sum(_cpu_ticks(pid) for pid in self.tree()) / _CLK_TCK

    def peak_rss_mib(self) -> float:
        """Summed ``VmHWM`` (peak resident set) over the process tree."""
        return sum(_vm_hwm_kib(pid) for pid in self.tree()) / 1024.0

    # -- HTTP ------------------------------------------------------------

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT_S)

    def metrics(self) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise ServerError(f"GET /metrics answered {response.status}")
        return json.loads(raw)


def post(conn: http.client.HTTPConnection, path: str, body: bytes) -> tuple[int, str, bytes]:
    """One keep-alive POST: ``(status, X-Repro-Cache, body)``."""
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = response.read()
    return response.status, response.getheader("X-Repro-Cache") or "", payload


def delete(conn: http.client.HTTPConnection, path: str) -> int:
    conn.request("DELETE", path)
    response = conn.getresponse()
    response.read()
    return response.status
