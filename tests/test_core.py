import pytest
from hypothesis import given, strategies as st

from bcesim.core import SimulationError, make_stream
from des_oracle import EventKind, EventQueue


def test_single_event_at_head():
    q = EventQueue()
    q.schedule(1.0, EventKind.GENERATION)
    ev = q.next_event()
    assert ev[0] == 1.0
    assert q.clock == 1.0


def test_ties_dispatch_in_scheduling_order():
    q = EventQueue()
    a = q.schedule(2.0, EventKind.GENERATION, "a")
    b = q.schedule(2.0, EventKind.GENERATION, "b")
    assert a < b
    assert q.next_event()[3] == "a"
    assert q.next_event()[3] == "b"


def test_scheduling_in_the_past_is_a_hard_fault():
    q = EventQueue()
    q.schedule(1.0, EventKind.GENERATION)
    q.next_event()
    with pytest.raises(SimulationError):
        q.schedule(0.5, EventKind.GENERATION)


def test_min_extraction():
    q = EventQueue()
    for t in (3.0, 1.0, 2.0):
        q.schedule(t, EventKind.GENERATION)
    assert q.next_event()[0] == 1.0


def test_empty_queue_returns_none():
    assert EventQueue().next_event() is None


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=60))
def test_dispatch_order_matches_sort_oracle(times):
    q = EventQueue()
    scheduled = []
    for i, t in enumerate(times):
        q.schedule(t, EventKind.GENERATION, i)
        scheduled.append((t, i))
    dispatched = []
    prev_clock = 0.0
    while True:
        ev = q.next_event()
        if ev is None:
            break
        assert q.clock >= prev_clock
        prev_clock = q.clock
        dispatched.append((ev[0], ev[3]))
    assert dispatched == sorted(scheduled)


def test_identical_seed_and_stream_identical_draws():
    a = make_stream(42, "generation")
    b = make_stream(42, "generation")
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]


def test_distinct_streams_are_decoupled():
    a = make_stream(42, "generation")
    b = make_stream(42, "channel-loss")
    assert [a.random() for _ in range(20)] != [b.random() for _ in range(20)]
