"""Multicore CPU model with weighted processor-sharing semantics.

Offloaded computation, VM boot work and container init all compete for
the server's cores.  We model the CPU as a *generalized processor
sharing* (GPS) server with per-job weights: when the CPU is
oversubscribed, capacity is split proportionally to weights (capped at
one core per job, redistributing the excess by water-filling); when it
is not, every job runs at full speed.  With equal weights this reduces
to egalitarian PS — the standard fluid approximation of a fair OS
scheduler — and reproduces the Fig. 2 behaviour: full-load plateaus
when requests pile up, instant spikes for small ChessGame bursts.

Weights are the mechanism behind Rattrap's Monitor & Scheduler
"resource scheduling at process-level": interactive offloaded tasks
can be weighted above batch work (see the scheduling ablation bench).

Jobs may carry a ``speed_factor`` < 1 to model virtualization overhead:
an Android VM job needs ``work/speed_factor`` seconds of CPU service
(hardware virtualization tax), while containers run at ~native speed
(§II-B, §VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..sim.events import Event
from ..sim.monitor import UtilizationTracker

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment

__all__ = ["MultiCoreCPU", "CpuJob"]

_EPS = 1e-9


@dataclass
class CpuJob:
    """One unit of CPU work in flight."""

    job_id: int
    remaining: float  # seconds of service still owed
    done: Event
    weight: float = 1.0
    tag: str = ""
    #: current service rate in cores (set by the GPS water-filling)
    rate: float = 0.0


class MultiCoreCPU:
    """Weighted processor-sharing multicore CPU.

    Usage (from a process)::

        yield cpu.execute(work_seconds=2.5, tag="ocr")
        yield cpu.execute(0.4, weight=4.0, tag="interactive")
    """

    def __init__(self, env: "Environment", cores: int = 12, name: str = "cpu"):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.env = env
        self.cores = int(cores)
        self.name = name
        self._jobs: Dict[int, CpuJob] = {}
        self._next_id = 0
        self._last_update = env.now
        self._wake: Optional[Event] = None
        self.utilization = UtilizationTracker(env, capacity=cores, name=name)
        self.completed_jobs = 0
        self.total_service = 0.0

    # -- public API ------------------------------------------------------------
    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def execute(
        self,
        work_seconds: float,
        speed_factor: float = 1.0,
        tag: str = "",
        weight: float = 1.0,
    ) -> Event:
        """Submit ``work_seconds`` of single-thread CPU work.

        Returns an event that succeeds when the work completes.
        ``speed_factor`` scales effective speed (virtualization tax);
        ``weight`` sets the job's share under contention.
        """
        if work_seconds < 0:
            raise ValueError("work_seconds must be >= 0")
        if not (0 < speed_factor <= 1.0):
            raise ValueError("speed_factor must be in (0, 1]")
        if weight <= 0:
            raise ValueError("weight must be positive")
        done = Event(self.env)
        service = work_seconds / speed_factor
        if service <= _EPS:
            done.succeed()
            return done
        self._advance()
        job = CpuJob(
            job_id=self._next_id, remaining=service, done=done, weight=weight, tag=tag
        )
        self._next_id += 1
        self._jobs[job.job_id] = job
        self.total_service += service
        self._recompute_rates()
        self._track_busy()
        self._reschedule()
        return done

    # -- GPS fluid dynamics ---------------------------------------------------------
    def _recompute_rates(self) -> None:
        """Water-filling GPS: weight-proportional shares capped at 1 core."""
        jobs = list(self._jobs.values())
        n = len(jobs)
        if n == 0:
            return
        if n <= self.cores:
            for job in jobs:
                job.rate = 1.0
            return
        capacity = float(self.cores)
        pending = jobs[:]
        # Iteratively grant rate-1 to jobs whose proportional share
        # exceeds one core; split what remains among the rest.
        while pending:
            total_weight = sum(j.weight for j in pending)
            share = capacity / total_weight
            capped = [j for j in pending if j.weight * share >= 1.0 - 1e-12]
            if not capped:
                for j in pending:
                    j.rate = j.weight * share
                return
            for j in capped:
                j.rate = 1.0
                capacity -= 1.0
            pending = [j for j in pending if j not in capped]
        # All jobs capped (only possible when n <= cores — handled above).

    def _advance(self) -> None:
        """Apply accumulated progress since the last state change."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= _EPS or not self._jobs:
            return
        finished: List[CpuJob] = []
        for job in self._jobs.values():
            job.remaining -= dt * job.rate
            if job.remaining <= _EPS:
                finished.append(job)
        for job in finished:
            del self._jobs[job.job_id]
            self.completed_jobs += 1
            job.done.succeed()
        if finished:
            self._recompute_rates()
            self._track_busy()

    def _track_busy(self) -> None:
        busy = float(min(len(self._jobs), self.cores))
        delta = busy - self.utilization.busy
        if delta > 0:
            self.utilization.acquire(delta)
        elif delta < 0:
            self.utilization.release(-delta)

    def _reschedule(self) -> None:
        """(Re)arm the wake-up at the next earliest job completion."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.defused = True
        if not self._jobs:
            self._wake = None
            return
        next_dt = min(job.remaining / job.rate for job in self._jobs.values())
        wake = self.env.timeout(max(next_dt, 0.0))
        self._wake = wake
        wake.add_callback(lambda ev, me=wake: self._on_wake(me))

    def _on_wake(self, wake: Event) -> None:
        if wake is not self._wake:
            return  # superseded by a newer schedule
        self._advance()
        self._reschedule()
