"""Start and stop ``repro serve`` processes (no ``repro`` import: run.py uses it too)."""

from __future__ import annotations

import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def server_command(store: Path, traced: bool, work: Path) -> list[str]:
    """``repro serve --port 0`` on ``store``, run by ``worker.py server``."""
    return [sys.executable, str(HERE / "worker.py"), "server", "--store", str(store),
            "--work", str(work), "--trace", str(int(traced))]


def start_server(command: list[str], env: dict) -> tuple[subprocess.Popen, int, float, float]:
    """Start a server; return it, its port, the seconds until ``serving on``
    and the host speed during its start-up."""
    begin = time.perf_counter()
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    speed = 1.0
    for line in proc.stderr:
        if line.startswith("host-speed"):
            speed = float(line.split()[1])
        elif line.startswith("serving on"):
            ready = time.perf_counter() - begin
            port = int(line.split()[2].rsplit(":", 1)[1])
            threading.Thread(target=proc.stderr.read, daemon=True).start()
            return proc, port, ready, speed
    proc.wait()
    raise RuntimeError(f"server exited with code {proc.returncode} before serving")


def stop_server(proc: subprocess.Popen) -> float:
    """Stop a server (SIGINT drains it); return its peak RSS in MB."""
    peak_kb = 0.0
    try:
        with open(f"/proc/{proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    peak_kb = float(line.split()[1])
    except OSError:
        pass
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    return peak_kb / 1024.0
