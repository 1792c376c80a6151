"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each ``yield``ed
:class:`~repro.sim.events.Event` suspends the generator until the event
is processed, at which point the kernel resumes it with the event's
value (or throws the event's exception, or an :class:`Interrupt`).

Processes are themselves events — they trigger with the generator's
return value — so they can be yielded on, combined with ``all_of`` /
``any_of``, and waited for by ``Environment.run(until=...)``.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import Event, EventState, Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Process"]


class Process(Event):
    """A running simulation process wrapping a generator."""

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        #: the event this process is currently suspended on
        self._target: Optional[Event] = None
        self.name = getattr(generator, "__name__", type(generator).__name__)
        # Kick off at the current time via an already-triggered bootstrap event.
        bootstrap = Event(env)
        bootstrap._state = EventState.TRIGGERED
        bootstrap.callbacks.append(self._resume)
        heappush(env._queue, (env.now, env._seq, bootstrap))
        env._seq += 1

    # -- public API --------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """Event the process is waiting on (None while running/finished)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting detaches it from its target first so the
        target's eventual outcome is ignored.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is None and self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        exc = Interrupt(cause)
        # Deliver asynchronously at now so interrupt() is safe mid-callback.
        carrier = Event(self.env)
        carrier._exception = exc
        carrier._state = EventState.TRIGGERED
        carrier.defused = True
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
            self._target = None
        carrier.add_callback(self._resume)
        self.env._enqueue(carrier, delay=0.0)

    # -- kernel internals -----------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Advance the generator one step with the outcome of ``trigger``."""
        env = self.env
        self._target = None
        env._active_process = self
        try:
            if trigger._exception is not None:
                trigger.defused = True
                next_target = self._generator.throw(trigger._exception)
            else:
                next_target = self._generator.send(trigger._value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # Anything escaping the generator (an Interrupt included)
            # ends the process with failure.
            env._active_process = None
            self.fail(exc)
            return
        env._active_process = None

        if not isinstance(next_target, Event):
            # Feed the mistake back into the generator as a diagnosable error.
            err = SimulationError(
                f"process {self.name!r} yielded {next_target!r}; expected an Event"
            )
            carrier = Event(env)
            carrier._exception = err
            carrier._state = EventState.TRIGGERED
            carrier.defused = True
            carrier.add_callback(self._resume)
            env._enqueue(carrier, delay=0.0)
            return

        if next_target.env is not env:
            raise SimulationError("yielded an event from a different environment")
        self._target = next_target
        callbacks = next_target.callbacks
        if callbacks is None:
            # Already processed: resume at once, as add_callback would.
            self._resume(next_target)
        else:
            callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} state={self.state.value}>"
