"""Launching the system under test the way an operator would, and
reading its resources from outside.

One deployment is two ``repro serve --cache`` backend processes and one
``repro gateway serve --backend ... --log ...`` process in front of
them, each in its own session (process group) with its own fresh
directory under the run's scratch directory.  The traced run adds a
standalone ``repro cluster serve`` router over the same backends, so the
router hop can be timed on its own TCP port.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_LISTEN_RE = re.compile(r"listening on ([\w.\-]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class LaunchError(RuntimeError):
    pass


class Proc:
    """One server process started with ``python -m repro ...``."""

    def __init__(self, name: str, argv: List[str], workdir: Path,
                 env: Dict[str, str], timeout: float = 60.0) -> None:
        self.name = name
        self.log_path = workdir / f"{name}.stderr"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=str(workdir), env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True, start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.address: Optional[Tuple[str, int]] = None
        self._timeout = timeout

    def wait_listening(self) -> Tuple[str, int]:
        box: Dict[str, str] = {}

        def read() -> None:
            box["line"] = self.proc.stdout.readline()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(self._timeout)
        match = _LISTEN_RE.search(box.get("line") or "")
        if match is None:
            raise LaunchError(f"{self.name} did not announce its address: "
                              f"{box.get('line')!r}; stderr: {self.stderr_tail()}")
        self.address = (match.group(1), int(match.group(2)))
        # Keep draining stdout so the child never blocks on a full pipe.
        threading.Thread(target=self._drain, daemon=True).start()
        return self.address

    def _drain(self) -> None:
        try:
            for _ in self.proc.stdout:
                pass
        except (ValueError, OSError):  # closed during shutdown
            pass

    def stderr_tail(self, limit: int = 600) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-limit:]
        except OSError:
            return ""

    def members(self) -> List[int]:
        """Live pids of this process's group (the server and any pool
        workers it forked)."""
        out = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            stat = _read_stat(int(entry))
            if stat is not None and int(stat[2]) == self.pgid:
                out.append(int(entry))
        return out

    def signal_group(self, sig: int) -> None:
        try:
            os.killpg(self.pgid, sig)
        except ProcessLookupError:
            pass

    def gone(self) -> bool:
        """True once the server and every member of its group have
        ended and been reaped.  A member orphaned by the server's exit
        (a pool worker, the resource tracker) is re-parented to this
        process (see :func:`become_subreaper`) and reaped here."""
        if self.proc.poll() is None:
            return False
        me = os.getpid()
        for pid in self.members():
            stat = _read_stat(pid)
            if stat is not None and stat[0] == "Z" and int(stat[1]) == me:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
        return not self.members()

    def close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def stop_all(procs: List[Proc], grace: float = 5.0) -> None:
    """SIGTERM every group at once, escalate to SIGKILL after *grace*,
    and return only when no member of any group is left."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for proc in procs:
            proc.signal_group(sig)
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline and not all(p.gone() for p in procs):
            time.sleep(0.02)
        if all(p.gone() for p in procs):
            break
    for proc in procs:
        proc.close()


def become_subreaper() -> None:
    """Make this process the reaper of every orphan it leaves: a server's
    pool worker or resource tracker whose parent died is re-parented
    here instead of to init, so :func:`reap_descendants` can wait for it.
    Linux only; elsewhere a no-op."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def descendants(root: Optional[int] = None) -> List[int]:
    """Pids of every process below *root* (default: this one), zombies
    included."""
    root = os.getpid() if root is None else root
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _read_stat(int(entry))
            if stat is not None:
                children.setdefault(int(stat[1]), []).append(int(entry))
    out, stack = [], [root]
    while stack:
        for pid in children.get(stack.pop(), []):
            out.append(pid)
            stack.append(pid)
    return out


def _reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_descendants(grace: float = 5.0) -> List[int]:
    """Stop every process this one started, directly or not, and wait
    until each has ended and been reaped.  Returns the pids that had to
    be signalled (empty when everything had already stopped)."""
    # The in-process resource tracker ignores SIGTERM; closing its pipe
    # is how it is meant to be stopped.
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, OSError, ChildProcessError):
        pass
    signalled: List[int] = []
    for sig in (signal.SIGTERM, signal.SIGKILL):
        _reap_children()
        live = descendants()
        if not live:
            break
        for pid in live:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        signalled.extend(p for p in live if p not in signalled)
        deadline = time.monotonic() + grace
        while live and time.monotonic() < deadline:
            time.sleep(0.02)
            _reap_children()
            live = descendants()
    _reap_children()
    return signalled


def _read_stat(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # Fields after the parenthesised command name; index 0 is the state.
    return raw[raw.rfind(")") + 2:].split()


def cpu_seconds(procs: List[Proc]) -> float:
    """User+system CPU of every live member of the groups, including
    reaped children (pool workers that already exited)."""
    total = 0
    for proc in procs:
        for pid in proc.members():
            stat = _read_stat(pid)
            if stat is not None:
                # utime, stime, cutime, cstime are fields 14-17 of stat.
                total += sum(int(v) for v in stat[11:15])
    return total / _CLK_TCK


def peak_rss_mb(procs: List[Proc]) -> float:
    """Summed peak resident set (VmHWM) of the long-lived servers."""
    total_kb = 0
    for proc in procs:
        try:
            with open(f"/proc/{proc.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


class Deployment:
    """Two cached backends behind a gateway (and, optionally, a
    standalone router over the same backends)."""

    def __init__(self, workdir: Path, src_dir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(src_dir)
        self.env["PYTHONUNBUFFERED"] = "1"
        # No calibration file from the caller's environment leaks in.
        self.env["REPRO_CALIBRATION"] = str(workdir / "calibration.json")
        self.backends: List[Proc] = []
        self.gateway: Optional[Proc] = None
        self.router: Optional[Proc] = None

    @property
    def procs(self) -> List[Proc]:
        return [p for p in (*self.backends, self.gateway, self.router) if p is not None]

    @property
    def under_test(self) -> List[Proc]:
        """The processes the end-to-end resource metrics cover."""
        return [p for p in (*self.backends, self.gateway) if p is not None]

    def start(self, router: bool = False) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for i in range(2):
            self.backends.append(Proc(
                f"backend{i}",
                ["serve", "--host", "127.0.0.1", "--port", "0", "--cache",
                 "--cache-dir", str(self.workdir / f"cache{i}")],
                self.workdir, self.env))
        addresses = [f"{h}:{p}" for h, p in (b.wait_listening() for b in self.backends)]
        argv = ["gateway", "serve", "--host", "127.0.0.1", "--port", "0",
                "--log", str(self.workdir / "gateway.wal")]
        for address in addresses:
            argv += ["--backend", address]
        self.gateway = Proc("gateway", argv, self.workdir, self.env)
        self.gateway.wait_listening()
        if router:
            argv = ["cluster", "serve", "--host", "127.0.0.1", "--port", "0"]
            for address in addresses:
                argv += ["--backend", address]
            self.router = Proc("router", argv, self.workdir, self.env)
            self.router.wait_listening()

    def stop(self) -> None:
        stop_all(self.procs)
        self.backends, self.gateway, self.router = [], None, None


# -- scraping ------------------------------------------------------------------

def scrape(gateway_client) -> Dict[str, dict]:
    """The gateway's merged ``/metrics?format=json`` families."""
    return gateway_client.metrics().get("metrics", {})


def family_sum(families: Dict[str, dict], name: str, field: str = "value",
               **labels: str) -> float:
    total = 0.0
    for sample in families.get(name, {}).get("samples", []):
        got = sample.get("labels", {})
        if all(got.get(k) == v for k, v in labels.items()):
            total += float(sample.get(field) or 0.0)
    return total


def family_by_label(families: Dict[str, dict], name: str, label: str,
                    field: str = "value") -> Dict[str, float]:
    out: Dict[str, float] = {}
    for sample in families.get(name, {}).get("samples", []):
        key = sample.get("labels", {}).get(label, "")
        out[key] = out.get(key, 0.0) + float(sample.get(field) or 0.0)
    return out


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests (``/proc/stat``)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        return 0.0


def host_facts() -> Dict[str, object]:
    import platform

    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "loadavg_at_start": load}


def launch(workdir: Path, src_dir: Path, warmup: List[dict],
           router: bool = False) -> Tuple[Deployment, float]:
    """Start a deployment, wait until the gateway answers, and warm it:
    every warm-up spec once on each backend directly, then once through
    the gateway.  Returns the deployment and the seconds all that took.
    The warm-up specs are small and share no key with any workload job.
    """
    from repro.errors import ClusterError, GatewayError
    from repro.gateway.client import GatewayClient
    from repro.service.client import ServiceClient

    started = time.perf_counter()
    dep = Deployment(workdir, src_dir)
    try:
        dep.start(router=router)
        gateway = GatewayClient(dep.gateway.address, timeout=60.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                gateway.stats()
                break
            except (GatewayError, ClusterError):  # not answering yet
                if time.monotonic() > deadline:
                    raise LaunchError("gateway never answered /v1/stats")
                time.sleep(0.02)
        for backend in dep.backends:
            with ServiceClient(*backend.address, timeout=60.0) as client:
                for spec in warmup:
                    client.detect(spec)
        for spec in warmup:
            gateway.detect(spec)
    except BaseException:
        dep.stop()
        raise
    return dep, time.perf_counter() - started
