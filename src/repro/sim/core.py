"""The simulation environment: clock, event heap, run loop.

The :class:`Environment` is the single shared object threaded through
every substrate in :mod:`repro` — the cloud server, network links,
mobile devices and the Rattrap platform itself all schedule their work
on one heap so that cross-component timings compose correctly.

Time is a float in **seconds** throughout the code base.
"""

from __future__ import annotations

from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from .events import AllOf, AnyOf, Event, EventState, SimulationError, Timeout
from .process import Process

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]

#: Upper bound on the Timeout free list: enough to absorb the steady
#: state of the largest experiments without pinning memory forever.
_TIMEOUT_POOL_CAP = 1024

_TRIGGERED = EventState.TRIGGERED
_PROCESSED = EventState.PROCESSED


class EmptySchedule(Exception):
    """Raised internally when the event heap runs dry."""


class StopSimulation(Exception):
    """Raised to stop :meth:`Environment.run` from within a callback."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Environment:
    """Discrete-event simulation environment.

    Example
    -------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(3.0)
    ...     return "done"
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> env.now
    3.0
    """

    #: when set (see :func:`repro.obs.enable_auto`), every new
    #: environment gets an Observability attached at construction
    obs_factory: Optional[Callable[["Environment"], Any]] = None

    def __init__(self, initial_time: float = 0.0):
        #: current simulated time in seconds — a plain attribute that
        #: only the kernel writes (the run loop and :meth:`step`)
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0  # tie-breaker keeps FIFO order for simultaneous events
        self._active_process: Optional[Process] = None
        #: recycled Timeout instances (see the run-loop refcount check)
        self._timeout_pool: List[Timeout] = []
        #: the attached FaultInjector, if any (set by repro.faults);
        #: clients probe it for link blackouts via duck typing
        self.faults: Optional[Any] = None
        #: the attached Observability (tracer + metrics registry), if
        #: any — None keeps every instrumentation site on its fast path
        self.obs: Optional[Any] = None
        #: the attached TenancyManager, if any (set by
        #: repro.platform.tenancy) — None disables per-tenant
        #: accounting and every isolation countermeasure
        self.tenancy: Optional[Any] = None
        factory = type(self).obs_factory
        if factory is not None:
            factory(self)

    # -- clock ---------------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def event_count(self) -> int:
        """Total events scheduled so far — a throughput odometer."""
        return self._seq

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        """A bare, manually triggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now.

        Timeouts dominate event traffic, so consumed ones are recycled
        through a free list instead of hitting the allocator each time;
        a recycled instance is rearmed here and pushed straight onto the
        heap under the same ``(time, seq)`` key a fresh one would get.
        """
        pool = self._timeout_pool
        if not pool:
            return Timeout(self, delay, value)
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        event = pool.pop()
        event.callbacks = []
        event._value = value
        event._exception = None
        event.defused = False
        event.delay = delay = float(delay)
        event._state = _TRIGGERED
        heappush(self._queue, (self.now + delay, self._seq, event))
        self._seq += 1
        return event

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a concurrently running process."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event succeeding when every child succeeds."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event succeeding on the first child success."""
        return AnyOf(self, events)

    # -- scheduling (kernel internal) -------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        heappush(self._queue, (self.now + delay, self._seq, event))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled event, ``inf`` if none.

        After ``run(until=t)`` returns, ``peek() > t`` strictly: events
        scheduled exactly at the horizon are processed before the run
        loop stops (see :meth:`run`).  The sharded kernel's idle-epoch
        skipping (:mod:`repro.sim.shard`) relies on this contract to
        prove a sync round empty before eliding it.
        """
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Pop and process a single event.

        The reference loop: :meth:`run` inlines this for speed, and
        must process the same events in the same order with the same
        clock as repeated ``step()`` calls (a subclass or tracer that
        overrides ``step`` makes :meth:`run` call it for every event).
        """
        try:
            when, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        if when < self.now:  # pragma: no cover - heap invariant
            raise SimulationError("event scheduled in the past")
        self.now = when
        event._process()
        # Surface failures nobody waited on: silent loss hides model bugs.
        if event.exception is not None and not event.defused:
            raise event.exception

    # -- run loop -----------------------------------------------------------------
    def run(self, until: "float | Event | None" = None) -> Any:
        """Advance the simulation.

        ``until`` may be ``None`` (run until the heap is empty), a time
        (run up to that instant), or an :class:`Event` (run until it is
        processed, returning its value).

        A time horizon is *inclusive*: an event scheduled exactly at
        ``until`` fires before the loop stops (only ``when > horizon``
        breaks), so back-to-back windows ``run(until=a); run(until=b)``
        partition events as ``(-inf, a], (a, b]`` with none lost or
        double-fired at the seams.
        """
        stop_event: Optional[Event] = None
        horizon = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
            stop_event.add_callback(self._stop_callback)
        elif until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise ValueError(
                    f"until={horizon!r} lies in the past (now={self.now!r})"
                )

        # Hot loop: the whole simulation funnels through here, so the heap
        # is popped directly instead of via peek()/step() round trips —
        # unless step() has been overridden (e.g. an attached EventTracer),
        # in which case every event must still flow through it.
        queue = self._queue
        pop = heappop
        pool = self._timeout_pool
        # Globals read once per event, bound to locals.
        processed, timeout, pool_cap, refcount = (
            _PROCESSED, Timeout, _TIMEOUT_POOL_CAP, getrefcount
        )
        fast = "step" not in self.__dict__ and type(self).step is Environment.step
        try:
            while True:
                if not queue:
                    if horizon != float("inf"):
                        self.now = horizon
                        break
                    raise EmptySchedule()
                when = queue[0][0]
                if when > horizon:
                    self.now = horizon
                    break
                if fast:
                    _, _, event = pop(queue)
                    self.now = when
                    # Event._process, inlined: mark processed, then run
                    # the callbacks detached from the event.
                    event._state = processed
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    # Drop the loop's references, or they would veto
                    # the Timeout recycle below.
                    callbacks = callback = None
                    # Surface failures nobody waited on: silent loss hides
                    # model bugs (same policy as step()).
                    if event._exception is not None and not event.defused:
                        raise event._exception
                    # Recycle dead Timeouts.  refcount == 2 (the loop
                    # local + the getrefcount argument) proves nothing
                    # else still holds the event — condition events,
                    # interrupt bookkeeping or user code would each add
                    # a reference and veto the recycle.
                    if (
                        type(event) is timeout
                        and len(pool) < pool_cap
                        and refcount(event) == 2
                    ):
                        pool.append(event)
                else:
                    self.step()
        except EmptySchedule:
            if stop_event is not None and not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) finished without the event triggering"
                ) from None
        except StopSimulation as stop:
            return stop.value
        if stop_event is not None:
            return stop_event.value if stop_event.triggered else None
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event.exception is not None:
            event.defused = True
            raise event.exception
        raise StopSimulation(event._value)

    # -- convenience -----------------------------------------------------------
    def defer(self, fn: Callable[[], None], delay: float = 0.0) -> Event:
        """Run a zero-argument callable at ``now + delay``."""
        ev = self.timeout(delay)
        ev.add_callback(lambda _ev: fn())
        return ev

    def defer_at(self, fn: Callable[[], None], when: float) -> Event:
        """Run a zero-argument callable at the absolute instant ``when``.

        The absolute-time twin of :meth:`defer`, for callers that hold
        a timestamp rather than a delay (e.g. a cross-shard message's
        ``deliver_at``).  Scheduling in the past is an error.
        """
        if when < self.now:
            raise ValueError(
                f"defer_at({when!r}) lies in the past (now={self.now!r})"
            )
        return self.defer(fn, when - self.now)
