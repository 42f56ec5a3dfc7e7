import threading
import time

import pytest

from hexloc._tasks import map_tasks

TIMEOUT_S = 10.0


def test_first_task_starts_while_items_are_yielded():
    # the generator waits for task 0 before it yields item 1; a map that
    # collected its items before starting any task would time out here
    started = threading.Event()
    waits = []

    def items():
        yield 0
        waits.append(started.wait(TIMEOUT_S))
        yield from range(1, 5)

    def task(item):
        if item == 0:
            started.set()
        return item * item

    assert map_tasks(task, items()) == [0, 1, 4, 9, 16]
    assert waits == [True]


def test_results_keep_item_order():
    # later items finish first
    def task(item):
        time.sleep(0.002 * (8 - item))
        return item

    assert map_tasks(task, range(8)) == list(range(8))
    assert map_tasks(task, iter(())) == []


def test_first_error_raised_after_in_flight_tasks_finish():
    # item 1 fails only once item 2 has started, so item 2 is in flight,
    # not cancelled, when the first error comes out
    finished = []
    item_2_started = threading.Event()
    waits = []

    def task(item):
        if item == 1:
            waits.append(item_2_started.wait(TIMEOUT_S))
        if item == 2:
            item_2_started.set()
        if item in (1, 3):
            raise ValueError(f"item {item}")
        time.sleep(0.05)
        finished.append(item)
        return item

    with pytest.raises(ValueError, match="item 1"):
        map_tasks(task, range(4))
    assert waits == [True]
    assert sorted(finished) == [0, 2]


def test_iterable_error_raised_after_started_tasks_finish():
    finished = []

    def items():
        yield 0
        raise RuntimeError("no more items")

    def task(item):
        time.sleep(0.05)
        finished.append(item)

    with pytest.raises(RuntimeError, match="no more items"):
        map_tasks(task, items())
    assert finished == [0]
