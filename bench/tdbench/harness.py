"""Timed item loop shared by the workloads.

An item is a workload's unit of verified work: one call (or a short fixed
sequence of calls) into twistdirac, timed on its own, followed by checks
that are not timed.  Times are CPU time of the process
(``time.process_time``): the package is single-threaded and does no I/O
in an item, so on an idle machine this equals wall time, while on a
shared one it leaves out the time other processes hold the CPU.  Items
whose program output is wrong count as failed when they are one of the
named known faults; any other wrong output makes the run incorrect.
"""

from __future__ import annotations

import time


class ItemLog:
    """Per-item program times and outcomes of one run."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.fault_counts = {}
        self.problems = []

    @property
    def program_s(self):
        return sum(self.times)

    def item(self, label, call, check, fault=None):
        """Time call(), then run check(output), which returns None when the
        output is right and a description of the problem otherwise.  An
        exception from call() is a wrong output."""
        start = time.process_time()
        try:
            out = call()
        except Exception as exc:  # the program failed this item
            out = exc
        self.times.append(time.process_time() - start)
        self.attempted += 1
        if isinstance(out, Exception):
            problem = f"raised {type(out).__name__}: {out}"
        else:
            problem = check(out)
        if problem is None:
            return out
        if fault is not None:
            self.failed += 1
            self.fault_counts[fault] = self.fault_counts.get(fault, 0) + 1
        else:
            self.problems.append(f"{label}: {problem}")
        return None if isinstance(out, Exception) else out
