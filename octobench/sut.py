"""The system under test: generated artifacts and the ``octopus serve`` process.

Everything here goes through the ``octopus`` CLI and the HTTP endpoints; the
program only ever receives generated inputs (a dataset directory, a snapshot
file, request JSON).
"""

from __future__ import annotations

import glob
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from octobench import spec

SHM_GLOB = "/dev/shm/repro-shm-*"


def cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = spec.SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(arguments: Sequence[str], timeout: float = 600.0) -> float:
    """Run one ``octopus`` command to completion; returns its wall seconds."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments],
        env=cli_env(), capture_output=True, text=True, timeout=timeout)
    if completed.returncode != 0:
        raise RuntimeError(
            f"octopus {' '.join(arguments)} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-400:]}")
    return time.perf_counter() - started


@dataclass(frozen=True)
class Artifacts:
    dataset: str
    snapshot_serial: str
    snapshot_threads: str
    reference: str  # cached reference seed sets for seed_quality_ratio

    def snapshot(self, kind: str) -> str:
        return self.snapshot_threads if kind == "threads" else self.snapshot_serial


def ensure_artifacts(scale: spec.Scale) -> Artifacts:
    """Generate the dataset and both snapshots once per checkout.

    Built in a scratch directory and renamed into place, so an interrupted
    build is never mistaken for a finished one.
    """
    final = os.path.join(spec.OUT, f"artifacts-{scale.name}")
    artifacts = Artifacts(
        os.path.join(final, "dataset"),
        os.path.join(final, "serial.octosnap"),
        os.path.join(final, "threads.octosnap"),
        os.path.join(final, "reference.json"),
    )
    if os.path.isdir(final):
        return artifacts
    os.makedirs(spec.OUT, exist_ok=True)
    scratch = f"{final}.building-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    dataset = os.path.join(scratch, "dataset")
    times = {
        "generate_s": run_cli([
            "generate", "--kind", "citation", "--size", str(scale.users),
            "--seed", str(spec.DATASET_SEED), "--out", dataset]),
        "snapshot_serial_s": run_cli([
            "snapshot", dataset, "--seed", str(spec.SNAPSHOT_SEED),
            "--out", os.path.join(scratch, "serial.octosnap")]),
        "snapshot_threads_s": run_cli([
            "snapshot", dataset, "--seed", str(spec.SNAPSHOT_SEED),
            "--backend", "threads", "--workers", "2",
            "--out", os.path.join(scratch, "threads.octosnap")]),
    }
    from octobench import quality  # imports repro; only needed when building

    started = time.perf_counter()
    quality.write_reference(
        dataset, os.path.join(scratch, "serial.octosnap"),
        os.path.join(scratch, "reference.json"), scale)
    times["reference_s"] = time.perf_counter() - started
    print("octobench: built artifacts " + " ".join(
        f"{name}={value:.2f}" for name, value in times.items()), file=sys.stderr)
    try:
        os.rename(scratch, final)
    except OSError:  # another run finished the same build first
        shutil.rmtree(scratch, ignore_errors=True)
    return artifacts


def serve_arguments(workload: spec.Workload, artifacts: Artifacts) -> List[str]:
    if workload.snapshot:
        source = ["--snapshot", artifacts.snapshot(workload.snapshot)]
    else:
        source = [artifacts.dataset, "--seed", str(spec.SNAPSHOT_SEED)]
    return ["serve", *source, *workload.serve_args, "--port", "0"]


class BootError(RuntimeError):
    """The server did not become healthy before the deadline."""


def _group_members(group: int) -> List[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we were looking
        if int(fields[2]) == group and fields[0] != "Z":
            members.append(int(entry))
    return members


class Server:
    """One ``octopus serve`` subprocess in its own process group."""

    def __init__(self, arguments: Sequence[str], log_path: str) -> None:
        self.shm_before = set(glob.glob(SHM_GLOB))
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *arguments],
            env=cli_env(), stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True)
        self.url: Optional[str] = None

    def wait_healthy(self, deadline_s: float = spec.BOOT_DEADLINE_S) -> str:
        """Poll the log for the bound URL, then ``/healthz`` until ok."""
        from repro.server import OctopusClient, OctopusTransportError

        deadline = self.spawned + deadline_s
        while self.url is None:
            if self.process.poll() is not None:
                raise BootError(f"server exited {self.process.returncode} "
                                f"during boot: {self.log_tail()}")
            if time.perf_counter() > deadline:
                raise BootError("server printed no URL before the deadline")
            with open(self.log_path, encoding="utf-8") as handle:
                match = re.search(r"https?://[0-9.]+:\d+", handle.read())
            if match:
                self.url = match.group(0)
            else:
                time.sleep(0.01)
        with OctopusClient(self.url, timeout=5.0) as client:
            while True:
                try:
                    if client.health().get("status") == "ok":
                        return self.url
                except OctopusTransportError:
                    pass
                if time.perf_counter() > deadline:
                    raise BootError("server not healthy before the deadline")
                time.sleep(0.01)

    def log_tail(self) -> str:
        try:
            with open(self.log_path, encoding="utf-8") as handle:
                return handle.read()[-400:].strip()
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server's process group, in MB."""
        total_kb = 0
        for pid in _group_members(self.process.pid):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> List[str]:
        """Drain and stop the group; returns hygiene violations (normally none).

        ``octopus serve`` drains on SIGINT (it has no SIGTERM handler), so the
        order is SIGINT, then SIGTERM, then SIGKILL for the whole group.
        Callers close their client connections first: the drain waits for them.
        """
        problems: List[str] = []
        group = self.process.pid

        def gone() -> bool:
            return self.process.poll() is not None and not _group_members(group)

        for signum, patience in ((signal.SIGINT, 10.0), (signal.SIGTERM, 3.0),
                                 (signal.SIGKILL, 3.0)):
            if gone():
                break
            if signum != signal.SIGINT:
                problems.append(f"server needed {signal.Signals(signum).name}")
            try:
                os.killpg(group, signum)
            except ProcessLookupError:
                pass
            deadline = time.perf_counter() + patience
            while not gone() and time.perf_counter() < deadline:
                time.sleep(0.01)
        self._log.close()
        if not gone():
            problems.append(f"surviving server processes: {_group_members(group)}")
        leaked = sorted(set(glob.glob(SHM_GLOB)) - self.shm_before)
        if leaked:
            problems.append(f"leaked shared memory: {leaked}")
            for path in leaked:  # ours: created after spawn, owner is gone
                shutil.rmtree(path, ignore_errors=True)
        return problems
