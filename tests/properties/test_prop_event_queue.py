"""Property tests of the event queue and the simulator loop.

``len(queue)`` must always equal the number of live (pushed, not popped,
not cancelled) events, under *any* interleaving of push / cancel / pop /
peek — including the sequences that used to corrupt it: double cancels,
cancels after pop, and cancels of events that ``peek_time`` silently
dropped from the heap while skimming a cancelled prefix.

Events leave in ``(time, priority, seq)`` order, both through
``EventQueue.pop`` and through ``Simulator.run``'s own loop over the
heap, and the loop's ``max_events``/``until`` limits hold exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.events import EventQueue, Simulator

#: One operation: push(time), or cancel/pop/peek.  Cancel targets are an
#: index into everything ever pushed (live or not), so stale handles —
#: popped events, already-cancelled events, events the heap has dropped —
#: get cancelled too, which is exactly where the bookkeeping can break.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.floats(0.0, 10.0, allow_nan=False)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("peek"), st.just(0)),
    ),
    max_size=60,
)


@given(ops=OPS)
@settings(max_examples=300, deadline=None)
def test_len_always_equals_live_event_count(ops):
    queue = EventQueue()
    pushed = []  # every event handle ever created
    popped = set()
    for op, arg in ops:
        if op == "push":
            pushed.append(queue.push(arg, lambda: None))
        elif op == "cancel" and pushed:
            pushed[arg % len(pushed)].cancel()
        elif op == "pop":
            event = queue.pop()
            if event is not None:
                assert not event.cancelled
                popped.add(id(event))
        elif op == "peek":
            time = queue.peek_time()
            if time is not None:
                live = [
                    e for e in pushed
                    if not e.cancelled and id(e) not in popped
                ]
                assert time == min(e.time for e in live)
        live_count = sum(
            1
            for e in pushed
            if not e.cancelled and id(e) not in popped
        )
        assert len(queue) == live_count

    # Drain what's left: every remaining live event must actually pop.
    remaining = len(queue)
    drained = 0
    while queue.pop() is not None:
        drained += 1
    assert drained == remaining
    assert len(queue) == 0


@given(ops=OPS)
@settings(max_examples=150, deadline=None)
def test_events_leaving_the_queue_are_detached(ops):
    """No event outside the heap may keep a back-reference to the queue —
    popped, or dropped by peek_time's cancelled-prefix skim."""
    queue = EventQueue()
    pushed = []
    for op, arg in ops:
        if op == "push":
            pushed.append(queue.push(arg, lambda: None))
        elif op == "cancel" and pushed:
            pushed[arg % len(pushed)].cancel()
        elif op == "pop":
            event = queue.pop()
            if event is not None:
                assert event._queue is None
        elif op == "peek":
            queue.peek_time()
    in_heap = {id(entry[3]) for entry in queue._heap}
    for event in pushed:
        if id(event) not in in_heap:
            assert event._queue is None


#: Like OPS, but pushes carry a priority and times come from a small grid
#: so that equal times (and equal priorities) are common.
ORDERED_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.tuples(st.integers(0, 4), st.integers(-1, 1)),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("peek"), st.just(0)),
    ),
    max_size=60,
)


@given(ops=ORDERED_OPS)
@settings(max_examples=300, deadline=None)
def test_pop_order_is_time_priority_seq(ops):
    queue = EventQueue()
    pushed = []
    live = {}  # id(event) -> (time, priority, seq)
    for op, arg in ops:
        if op == "push":
            time, priority = arg
            event = queue.push(float(time), lambda: None, priority=priority)
            pushed.append(event)
            live[id(event)] = (event.time, event.priority, event.seq)
        elif op == "cancel" and pushed:
            event = pushed[arg % len(pushed)]
            event.cancel()
            live.pop(id(event), None)
        elif op == "pop":
            event = queue.pop()
            if live:
                assert event is not None
                assert (event.time, event.priority, event.seq) == min(
                    live.values()
                )
                del live[id(event)]
            else:
                assert event is None
        elif op == "peek":
            time = queue.peek_time()
            expected = min(live.values())[0] if live else None
            assert time == expected
    keys = []
    while (event := queue.pop()) is not None:
        keys.append((event.time, event.priority, event.seq))
    assert keys == sorted(live.values())


@given(
    schedule=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 2)),
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_simultaneous_events_fire_in_scheduling_order(schedule):
    """Same instant, same priority: the simulator fires events in the
    order they were scheduled, including events an action schedules for
    the current instant while the loop runs."""
    sim = Simulator()
    fired = []
    scheduled = []

    def make(label, children):
        def action():
            fired.append(label)
            for child in range(children):
                child_label = (label, child)
                scheduled.append((sim.now, 0, child_label))
                sim.schedule(sim.now, make(child_label, 0))

        return action

    for index, (time, priority, children) in enumerate(schedule):
        scheduled.append((float(time), priority, index))
        sim.schedule(float(time), make(index, children), priority=priority)
    sim.run()
    assert sorted(fired, key=repr) == sorted(
        (label for _, _, label in scheduled), key=repr
    )
    for time in {t for t, _, _ in scheduled}:
        for priority in (0, 1):
            same = [
                label
                for t, p, label in scheduled
                if t == time and p == priority
            ]
            assert [label for label in fired if label in same] == same


@given(times=st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=20))
@settings(max_examples=100, deadline=None)
def test_run_with_zero_max_events_fires_nothing(times):
    sim = Simulator()
    fired = []
    for time in times:
        sim.schedule(time, lambda: fired.append(True))
    assert sim.run(max_events=0) == 0.0
    assert fired == []
    assert sim.events_processed == 0
    assert sim.pending_events == len(times)


@given(
    times=st.lists(
        st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=20
    ),
    until=st.floats(0.0, 10.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_run_until_stops_at_until_when_next_event_is_later(times, until):
    sim = Simulator()
    fired = []
    for time in times:
        sim.schedule(time, lambda time=time: fired.append(time))
    stopped = sim.run(until=until)
    assert sorted(fired) == sorted(t for t in times if t <= until)
    if any(t > until for t in times):
        assert stopped == until
        assert sim.now == until
    else:
        assert sim.now == max(times)
