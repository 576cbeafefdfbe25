"""CPU time and proportional memory of a process tree, read from /proc.

The tree is the calling process and every live descendant: the Ray daemons
that ``ray.init`` starts are its children and the Ray workers are the
raylet's children.  The raylet ignores SIGCHLD, so a worker that exits --
every MentionStage actor does, at the end of each execution -- is reaped
without its CPU time reaching any parent's ``cutime``.  ``TreeMonitor``
therefore samples each process's own ``utime + stime`` several times a
second and keeps the last reading of processes that have gone; CPU a
process spends after its last sample is lost (at most one interval per
exiting process, during which an exiting actor is idle).  Memory is
proportional set size (``Pss`` in ``smaps_rollup``), so pages shared
between processes -- the plasma object store above all -- count once.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # comm (field 2) may hold spaces and parentheses; split after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def tree_pids() -> list[int]:
    """This process and all of its live descendants."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is None:
            continue
        children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [os.getpid()]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_pss_mb(pids: list[int]) -> float:
    """Summed proportional set size of ``pids``, in MB (10^6 bytes)."""
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb * 1024 / 1e6


class TreeMonitor:
    """Samples the tree on a thread: CPU every ``interval`` seconds, PSS
    every ``pss_every`` samples.  ``cpu_s()`` is the CPU time used by every
    process seen since the monitor started; ``peak_mb`` the highest PSS
    sum seen.  Use as a context manager."""

    def __init__(self, interval: float = 0.2, pss_every: int = 5):
        self.interval = interval
        self.pss_every = pss_every
        self.peak_mb = 0.0
        self._cpu: dict[tuple[int, str], int] = {}  # (pid, start time) -> ticks
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample_cpu(self) -> list[int]:
        pids = tree_pids()
        with self._lock:
            for pid in pids:
                fields = _stat_fields(pid)
                if fields is not None:
                    # stat fields 14, 15 (utime, stime) and 22 (start time)
                    self._cpu[(pid, fields[19])] = int(fields[11]) + int(fields[12])
        return pids

    def cpu_s(self) -> float:
        self._sample_cpu()
        with self._lock:
            return sum(self._cpu.values()) / _TICK

    def _loop(self) -> None:
        for n in itertools.count():
            pids = self._sample_cpu()
            if n % self.pss_every == 0:
                self.peak_mb = max(self.peak_mb, tree_pss_mb(pids))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "TreeMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def host_steal_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of the whole VM since boot (/proc/stat):
    time the hypervisor ran something else while a vCPU wanted to run."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Wait until none of ``pids`` is alive (zombies count as gone);
    returns those still alive after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive:
        alive = [p for p in alive if _alive(p)]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    return alive


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")
