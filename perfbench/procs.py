"""Child processes and the HTTP client the benchmark drives them with.

The program always runs in its own processes: ``repro-hmeans
pipeline`` children, the ``repro-hmeans serve`` daemon and the SOM
worker.  Each is started with :func:`child_env` and stopped (and waited
for) before the benchmark exits.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Everything the benchmark writes lives here (bytecode caches, ledgers,
# traces, logs); it is ignored by git.
WORK = ROOT / ".perfbench"
# Bytecode cache shared by every child once warmed.
PYCACHE = WORK / "pycache"

# Variables that would change what the program does or records.
_DROPPED_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "REPRO_LEDGER")


def program_present() -> bool:
    """Whether the checkout holds the program's sources."""
    return (SRC / "repro" / "cli.py").is_file()


def child_env(pycache: Path = PYCACHE) -> dict[str, str]:
    """The environment of every program process.

    Bytecode is written to and read from ``pycache`` (the benchmark's
    own cache, like the one an installed package ships with); BLAS
    thread settings are inherited unchanged.
    """
    env = {key: value for key, value in os.environ.items() if key not in _DROPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_child(argv: list[str], env: dict[str, str]) -> tuple[int, str, float, float]:
    """Run one child to completion.

    Returns its exit code, stdout, wall seconds from spawn to reaped,
    and its own peak RSS in MB.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), wall, usage.ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _readline(stream, deadline: float) -> bytes:
    if not select.select([stream], [], [], max(0.0, deadline - time.monotonic()))[0]:
        raise RuntimeError("child did not answer in time")
    return stream.readline()


class Connection:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """Send one request and return its status and body."""
        self.sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode("latin-1") + body
        )
        while b"\r\n\r\n" not in self._buffer:
            self._recv()
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        self._buffer = rest
        while len(self._buffer) < length:
            self._recv()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, body

    def _recv(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._buffer += chunk

    def close(self) -> None:
        self.sock.close()


class Daemon:
    """A ``repro-hmeans serve --port 0`` child with its own ledger."""

    def __init__(self, ledger: Path, log: Path) -> None:
        self.ledger = ledger
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        """Spawn the daemon and wait until ``/healthz`` answers 200."""
        deadline = time.monotonic() + timeout
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--ledger", str(self.ledger)],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log,
            )
        banner = _readline(self.proc.stdout, deadline).decode("utf-8", "replace")
        if not banner.startswith("serving on http://"):
            raise RuntimeError(f"daemon did not start: {banner!r}")
        self.port = int(banner.split()[2].rsplit(":", 1)[1])
        health = Connection(self.port)
        try:
            status, _ = health.request("GET", "/healthz")
        finally:
            health.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM the daemon and wait for its drain; kill it if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


class SomWorker:
    """The benchmark's SOM worker child (``perfbench/som_worker.py``)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("som_worker.py"))],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        self.call({"op": "ready"})

    def call(self, message: dict[str, Any], timeout: float = 120.0) -> dict[str, Any]:
        """Send one request line and read its one-line JSON answer."""
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()
        line = _readline(self.proc.stdout, time.monotonic() + timeout)
        if not line:
            raise RuntimeError("SOM worker exited")
        return json.loads(line)

    def stop(self) -> None:
        """Close the worker's stdin (its exit signal) and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
