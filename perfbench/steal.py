"""Take the time a hypervisor steals out of the benchmark's walls.

On a shared virtual machine the hypervisor runs other tenants on the
benchmark's CPUs while they have work; the guest kernel counts that time
as *steal* in ``/proc/stat``. On the 2-vCPU host the benchmark was tuned
on, steal came and went in phases of minutes: in one it took 37% of the
CPU time, and replays took 2.5x their wall of a quiet minute. A median
over one run cannot shed a phase that long.

A CPU is stolen from only while it has work, so over an interval
``busy / (busy + steal)``, summed over the CPUs, is the share of the
work's CPU time that actually ran. The benchmark multiplies each timed
wall by that share over the poll (or set-up) it belongs to: the wall the
same work takes when nothing is stolen. With no steal the share is 1 and
the timing is the plain wall. Where ``/proc/stat`` cannot be read the
share is 1 as well.
"""

from __future__ import annotations

from pathlib import Path

_STAT = Path("/proc/stat")


def sample() -> tuple[int, int]:
    """The machine's busy and stolen CPU time so far, in clock ticks."""
    try:
        with _STAT.open() as stat:
            fields = stat.readline().split()
    except OSError:
        return 0, 0
    if not fields or fields[0] != "cpu":
        return 0, 0
    # user nice system idle iowait irq softirq steal ...
    user, nice, system, _, _, irq, softirq, steal = (int(v) for v in fields[1:9])
    return user + nice + system + irq + softirq, steal


def unstolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """The share of the CPU time between two samples that was not stolen."""
    busy = after[0] - before[0]
    stolen = after[1] - before[1]
    if busy <= 0 or stolen <= 0:
        return 1.0
    return busy / (busy + stolen)
