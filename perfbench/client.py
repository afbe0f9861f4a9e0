"""Load-generator plumbing: keep-alive HTTP client and the server child.

Everything here runs on the load generator's single asyncio thread.  The
server lives in its own process (:mod:`perfbench.server`), so the client's
interpreter time is never charged to the server's threads.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path

HOST = "127.0.0.1"


class HttpConnection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(HOST, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """Send one request and read the whole response; returns (status, body).

        A connection error closes the connection (the next request reopens
        it) and propagates to the caller, which counts it as a failure.
        """
        if self._writer is None:
            await self._open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        try:
            self._writer.write(head.encode("ascii") + body)
            await self._writer.drain()
            raw_head = await self._reader.readuntil(b"\r\n\r\n")
            lines = raw_head.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            payload = await self._reader.readexactly(int(headers.get("content-length", "0")))
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            await self.close()
            raise ConnectionError(f"connection to port {self.port} failed") from None
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, payload

    async def post_json(self, path: str, document: dict) -> tuple[int, bytes]:
        return await self.request("POST", path, json.dumps(document).encode("utf-8"))

    async def get_json(self, path: str) -> dict:
        status, payload = await self.request("GET", path)
        if status != 200:
            raise ConnectionError(f"GET {path} answered {status}")
        return json.loads(payload)


class ServerProcess:
    """The server child (:mod:`perfbench.server`) and its command pipe."""

    def __init__(self, process: asyncio.subprocess.Process, port: int) -> None:
        self.process = process
        self.port = port

    @classmethod
    async def start(
        cls, root: Path, config: dict, config_path: Path, log_path: Path
    ) -> "ServerProcess":
        config_path.write_text(json.dumps(config), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        with log_path.open("wb") as log:
            process = await asyncio.create_subprocess_exec(
                sys.executable,
                str(root / "perfbench" / "server.py"),
                str(config_path),
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
                env=env,
            )
        try:
            line = await asyncio.wait_for(process.stdout.readline(), 60.0)
        except TimeoutError:
            line = b""
        if not line.startswith(b"READY "):
            await _reap(process)
            raise RuntimeError(
                "server process failed to start:\n"
                + log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            )
        return cls(process, int(line.split()[1]))

    async def command(self, text: str) -> dict:
        """Send one command line and read its one-line JSON answer."""
        self.process.stdin.write(text.encode("utf-8") + b"\n")
        await self.process.stdin.drain()
        line = await asyncio.wait_for(self.process.stdout.readline(), 60.0)
        if not line:
            raise RuntimeError(f"server process exited during command {text!r}")
        return json.loads(line)

    def peak_rss_mib(self) -> float:
        """Peak resident set size of the server process (VmHWM), in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text(encoding="ascii")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    async def stop(self) -> None:
        if self.process.returncode is None:
            try:
                self.process.stdin.write(b"quit\n")
                await self.process.stdin.drain()
            except ConnectionError:
                pass
        await _reap(self.process)


async def _reap(process: asyncio.subprocess.Process, timeout: float = 20.0) -> None:
    """Wait for the process to exit, killing it after ``timeout`` seconds."""
    try:
        await asyncio.wait_for(process.wait(), timeout)
    except TimeoutError:
        process.kill()
        await process.wait()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
