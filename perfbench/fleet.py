"""Server, shard and router processes, started through ``launcher.py``."""

from __future__ import annotations

import ctypes
import functools
import json
import os
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")
_PR_SET_PDEATHSIG = 1


@functools.lru_cache(maxsize=1)
def split_cpus() -> "tuple[frozenset, frozenset]":
    """``(server CPUs, client CPUs)``: servers and shards get every CPU but
    the last; the load generator and the router, the clients of the
    servers, share the last.  Fixed placement keeps the scheduler from
    stacking a request's hops on one CPU in some runs and not in others.
    With a single CPU everything shares it.  Decided once, before the
    benchmark pins itself."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return frozenset(cpus), frozenset(cpus)
    return frozenset(cpus[:-1]), frozenset(cpus[-1:])


def _child_setup(cpus) -> None:
    """Runs in the child before exec: pin it, and have the kernel kill it
    if the benchmark process dies first."""
    os.sched_setaffinity(0, cpus)
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


class LaunchError(RuntimeError):
    pass


class Node:
    """One launcher process; ``ready`` holds its start-up line."""

    def __init__(
        self,
        root: str,
        role: str,
        spec: dict,
        log_path: str,
        trace_path: "str | None" = None,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        command = [sys.executable, LAUNCHER, "--role", role, "--spec", json.dumps(spec)]
        if trace_path is not None:
            command += ["--trace", trace_path]
        self.role = role
        self.log_path = log_path
        self.ready: "dict | None" = None
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command,
                cwd=root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                preexec_fn=functools.partial(
                    _child_setup, split_cpus()[0 if role == "server" else 1]
                ),
            )

    def wait_ready(self, timeout: float = 120.0) -> dict:
        deadline = time.monotonic() + timeout
        stream = self.proc.stdout
        while self.ready is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise LaunchError(f"{self.role} not ready after {timeout}s")
            readable, __, __ = select.select([stream], [], [], remaining)
            if not readable:
                continue
            line = stream.readline()
            if not line:
                self.proc.wait()
                raise LaunchError(
                    f"{self.role} exited with {self.proc.returncode}: "
                    + self._log_tail()
                )
            try:
                message = json.loads(line)
            except ValueError:
                continue
            if message.get("ready"):
                self.ready = message
        return self.ready

    def _log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as log:
                return log.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.ready["address"]
        return host, int(port)

    @property
    def binary_address(self) -> "tuple[str, int] | None":
        address = self.ready.get("binary_address")
        return (address[0], int(address[1])) if address else None

    def peak_rss_mb(self) -> float:
        """``VmHWM`` (peak resident set) of the process, in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise LaunchError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (a traced process writes its spans first), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close()

    def kill(self) -> None:
        """SIGKILL and wait: the crash every durable write must survive."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Fleet:
    """The processes of one deployment; ``entry`` is the node clients call
    (the single server, or the router in front of the shards)."""

    def __init__(self, nodes: "list[Node]", entry: Node, data_dirs: "list[str]") -> None:
        self.nodes = nodes
        self.entry = entry
        self.data_dirs = data_dirs

    def peak_rss_mb(self) -> float:
        return sum(node.peak_rss_mb() for node in self.nodes)

    def stop(self) -> None:
        for node in self.nodes:
            node.stop()

    def kill(self) -> None:
        for node in self.nodes:
            node.kill()
