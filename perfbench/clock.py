"""The clock of the end-to-end metrics: CPU seconds, not wall seconds.

The benchmark runs on shared virtual machines whose host takes the CPU
away at times (steal time in /proc/stat).  While sizing the benchmark on
a 2-vCPU VM, steal reached a third of a busy CPU and moved the wall time
of one PDE run between 2.4 s and 4.6 s, while its CPU time stayed within
2.4-2.8 s.  CPU time counts what the program does and not what the host
does, so medians of it repeat from run to run.  Wall times are still
printed per operation.
"""

from __future__ import annotations

import resource
import time


def cpu_seconds() -> float:
    """User + system CPU time of this process, all its threads, and every
    child process it has waited for (with their own waited-for children)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime
