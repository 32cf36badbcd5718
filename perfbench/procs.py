"""The benchmark's view of its own process tree, read from ``/proc``.

The Ray driver is this process; ``ray.init(address="local")`` starts the
GCS and the raylet as its children, and the raylet starts the workers, so
every process of the engine is a descendant of this one.
"""

from __future__ import annotations

import os

CLK_TCK = os.sysconf("SC_CLK_TCK")


def stat(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def descendants(pid: int) -> dict[int, str]:
    """Every process below ``pid``, with its start time (to tell a pid
    that was reused from the process it named)."""
    children: dict[int, list[tuple[int, str]]] = {}
    for entry in os.listdir("/proc"):
        fields = stat(int(entry)) if entry.isdigit() else None
        if fields:
            children.setdefault(int(fields[1]), []).append((int(entry), fields[19]))
    out: dict[int, str] = {}
    stack = [pid]
    while stack:
        for child, start in children.get(stack.pop(), []):
            out[child] = start
            stack.append(child)
    return out


def alive(pid: int, start: str) -> bool:
    fields = stat(pid)
    return bool(fields) and fields[19] == start and fields[0] != "Z"


def cpu_ticks() -> dict[tuple[int, str], int]:
    """User plus system CPU ticks used so far by this process and each
    process below it, keyed by (pid, start time)."""
    out = {}
    for pid in [os.getpid(), *descendants(os.getpid())]:
        fields = stat(pid)
        if fields:
            out[(pid, fields[19])] = int(fields[11]) + int(fields[12])
    return out


def cpu_s_since(before: dict[tuple[int, str], int]) -> float:
    """CPU seconds the process tree used since ``cpu_ticks()`` returned
    ``before``: all of a process that started since, none of one that
    has ended (its time reaches its parent's only if the parent waits
    for it, and the counts are of the processes still there). The kernel counts time the
    hypervisor gave to other guests as steal time, not as CPU time of
    any process, so on a shared host this reads the engine's own work,
    where wall time also reads the neighbours'."""
    now = cpu_ticks()
    return sum(t - before.get(key, 0) for key, t in now.items()) / CLK_TCK
