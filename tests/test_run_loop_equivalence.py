"""Property: ``Environment.run``'s fast loop matches the ``step()`` loop.

``run`` inlines event dispatch for speed; an environment whose class
overrides ``step`` makes ``run`` call ``step()`` for every event
instead, the reference loop.  Generated process programs — timeouts
with zero delays and tied timestamps, events that succeed or fail with
and without ``defused``, interrupts, ``any_of``/``all_of``, contended
``Resource`` slots, events many processes wait on (some already
processed when waited for) and recycled timeouts — must produce the
same trace of ``(now, process, op, value or exception)``, the same
outcome and the same ``event_count`` under both loops.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt, Resource


class SteppedEnvironment(Environment):
    """Sends every event through the reference loop, ``step()``."""

    def step(self) -> None:
        super().step()


DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])

OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("succeed"), DELAYS),
    st.tuples(st.just("fail"), DELAYS, st.booleans()),
    st.tuples(st.just("stray-fail"), DELAYS, st.booleans()),
    st.tuples(st.just("any_of"), st.lists(DELAYS, min_size=1, max_size=3)),
    st.tuples(st.just("all_of"), st.lists(DELAYS, min_size=0, max_size=3)),
    st.tuples(st.just("interrupt"), st.integers(0, 4), DELAYS),
    st.tuples(st.just("resource"), DELAYS),
    st.tuples(st.just("gate"), st.integers(0, 1)),
)

PROGRAMS = st.tuples(
    st.integers(1, 2),  # resource capacity
    st.lists(st.lists(OPS, min_size=1, max_size=6), min_size=1, max_size=5),
)


def run_program(env_cls, program, window=None):
    """Run ``program`` on a fresh ``env_cls``; return what it observed.

    With a ``window``, the run advances in horizon-bounded steps first,
    recording the clock, event count and next event time at each seam.
    """
    capacity, scripts = program
    env = env_cls()
    slots = Resource(env, capacity=capacity)
    # Shared events: every waiter resumes in callback order.
    gates = [env.event(), env.event()]
    env.defer(lambda: gates[0].succeed("gate-0"), 0.5)
    env.defer(lambda: gates[1].succeed("gate-1"), 1.0)
    trace = []
    procs = []

    def worker(pid, ops):
        for k, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "timeout":
                    value = yield env.timeout(op[1], value=(pid, k))
                elif kind == "succeed":
                    ev = env.event()
                    env.defer(lambda ev=ev, v=(pid, k): ev.succeed(v), op[1])
                    value = yield ev
                elif kind == "fail":
                    ev = env.event()
                    ev.defused = op[2]
                    env.defer(
                        lambda ev=ev, e=ValueError(f"{pid}/{k}"): ev.fail(e), op[1]
                    )
                    value = yield ev
                elif kind == "stray-fail":
                    # Nobody waits: the run dies unless it is defused.
                    ev = env.event()
                    ev.defused = op[2]
                    env.defer(
                        lambda ev=ev, e=KeyError(f"{pid}/{k}"): ev.fail(e), op[1]
                    )
                    value = "fired"
                elif kind in ("any_of", "all_of"):
                    children = [env.timeout(d, value=i) for i, d in enumerate(op[1])]
                    combine = env.any_of if kind == "any_of" else env.all_of
                    value = yield combine(children)
                elif kind == "interrupt":
                    yield env.timeout(op[2])
                    victim = procs[op[1] % len(procs)]
                    if victim.is_alive and victim is not env.active_process:
                        victim.interrupt((pid, k))
                        value = "sent"
                    else:
                        value = "skipped"
                elif kind == "gate":
                    value = yield gates[op[1]]
                else:  # resource
                    with slots.request() as req:
                        yield req
                        yield env.timeout(op[1])
                    value = "held"
            except Interrupt as exc:
                value = ("interrupted", exc.cause)
            except ValueError as exc:
                value = ("failed", str(exc))
            if isinstance(value, dict):
                # A condition's value is keyed by event objects, which
                # differ between the two runs: compare the values.
                value = sorted(value.values())
            trace.append((env.now, pid, k, value))
        return pid

    for pid, ops in enumerate(scripts):
        procs.append(env.process(worker(pid, ops)))
    try:
        if window is not None:
            for k in range(1, 6):
                env.run(until=k * window)
                trace.append(("seam", env.now, env.event_count, env.peek()))
        env.run()
        outcome = "drained"
    except Exception as exc:  # an undefused stray failure ends the run
        outcome = repr(exc)
    return trace, outcome, env.now, env.event_count


@settings(max_examples=250, deadline=None)
@given(PROGRAMS)
def test_fast_loop_matches_step_loop(program):
    fast = run_program(Environment, program)
    stepped = run_program(SteppedEnvironment, program)
    assert fast == stepped


@settings(max_examples=60, deadline=None)
@given(PROGRAMS, st.sampled_from([0.25, 0.5, 1.0]))
def test_fast_loop_matches_step_loop_in_windows(program, window):
    """Horizon-bounded runs agree at every window seam too."""
    fast = run_program(Environment, program, window)
    stepped = run_program(SteppedEnvironment, program, window)
    assert fast == stepped


def test_recycled_timeouts_are_rearmed():
    """The fast loop recycles dead timeouts; a recycled one comes back
    rearmed, under a fresh ``(time, seq)`` key."""
    env = Environment()

    def proc(env):
        for k in range(5):
            env.timeout(0.0)  # dropped at once: recycled once it fires
            yield env.timeout(0.5, value=k)

    env.process(proc(env))
    env.run()
    assert env._timeout_pool, "dead timeouts were not recycled"
    count = env.event_count
    recycled = env._timeout_pool[-1]
    again = env.timeout(1.0, value="again")
    assert again is recycled
    assert again.callbacks == [] and not again.defused and again.delay == 1.0
    assert env.event_count == count + 1
    assert env.run(until=again) == "again" and env.now == 3.5
