"""Server processes: boot through the public CLI, probe, and stop cleanly.

Every server starts in its own session (``start_new_session``), so the
session id equals the leader's pid and "every process this server
started" is simply every live process in that session.  That gives the
memory metric (peak ``VmHWM`` summed over the session) and the orphan
check (after the leader exits, the session must be empty) without
knowing how the server spawns its workers.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import threading
import time
from pathlib import Path

from repro.serve.client import ServeClient, ServeClientError

__all__ = ["LifecycleError", "ServerProcess", "session_pids"]


class LifecycleError(RuntimeError):
    """A server failed to boot, to drain, or left a process behind."""


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after ")".
    return text[text.rindex(")") + 2:].split()


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if fields is not None and fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(entry.name))
    return sorted(pids)


def _vmhwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass  # exited between the scan and the read
    return 0


class ServerProcess:
    """One ``python -m repro ...`` server and every process it spawns.

    ``ready`` is a regex whose first group is the base URL printed once
    the server listens; ``stopped`` is the line it must print after a
    graceful drain.
    """

    def __init__(self, argv: list[str], cwd: Path, env: dict,
                 ready: str, stopped: str) -> None:
        self.argv = argv
        self._cwd = cwd
        self._env = env
        self._ready = re.compile(ready)
        self._stopped = stopped
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None
        self.lines: list[str] = []
        self.url = ""

    def start(self, timeout: float = 120.0) -> "ServerProcess":
        """Spawn the server and wait for its ready line and ``/healthz``."""
        self._proc = subprocess.Popen(
            self.argv, cwd=self._cwd, env=self._env, text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, start_new_session=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + timeout
        while not self.url:
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise LifecycleError(
                    f"{' '.join(self.argv[2:5])} did not come up: "
                    + " | ".join(self.lines[-5:]))
            for line in list(self.lines):
                match = self._ready.search(line)
                if match:
                    self.url = match.group(1)
                    break
            time.sleep(0.01)
        with ServeClient(self.url, timeout=5.0) as client:
            while True:
                try:
                    client.healthz()
                    return self
                except ServeClientError:
                    if time.monotonic() > deadline:
                        self.kill()
                        raise LifecycleError(
                            f"{self.url} never answered /healthz") from None
                    time.sleep(0.01)

    def _read(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            self.lines.append(line.rstrip("\n"))

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def rss_mb(self) -> float:
        """Peak resident memory (VmHWM) summed over the session, in MB."""
        return sum(_vmhwm_kb(pid) for pid in session_pids(self.pid)) / 1024.0

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM the leader; require its drain line and an empty session."""
        proc = self._proc
        if proc is None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise LifecycleError(
                f"server {self.pid} did not drain within {timeout}s") from None
        self._join_reader()
        leftovers = session_pids(self.pid)
        if leftovers:
            self.kill()
            raise LifecycleError(
                f"server {self.pid} left processes {leftovers} running")
        if code != 0 or self._stopped not in self.lines:
            raise LifecycleError(
                f"server {self.pid} exited {code} without {self._stopped!r}: "
                + " | ".join(self.lines[-5:]))
        self._proc = None

    def kill(self) -> None:
        """Hard-stop the whole session (error paths only) and reap it."""
        proc = self._proc
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole session is already gone
        proc.wait()
        self._join_reader()
        # Children reparented away from the leader die with the group
        # signal; give the kernel a moment to reap them.
        deadline = time.monotonic() + 5.0
        while session_pids(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        self._proc = None

    def _join_reader(self) -> None:
        if self._reader is not None:
            self._reader.join(timeout=10.0)
            self._reader = None
