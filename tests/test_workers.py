from __future__ import annotations

import os
import signal
import weakref

import pytest

from refgraph.workers import OrderedMap


class _Box:
    def __init__(self, n: int):
        self.n = n


def _doubled(box: _Box):
    yield os.getpid()
    yield box.n * 2


def _died(box: _Box) -> Exception:
    return RuntimeError(f"the process running box {box.n} ended")


@pytest.mark.parametrize("here", [False, True], ids=["workers-only", "here-too"])
@pytest.mark.parametrize("processes", [1, 2, 3])
def test_items_dealt_to_workers_are_let_go_of_here(processes, here):
    # This process keeps only its own share; the workers have theirs from the fork.
    boxes = [_Box(n) for n in range(5)]
    refs = [weakref.ref(box) for box in boxes]
    with OrderedMap(_doubled, boxes, processes, _died, here=here) as results:
        del boxes
        runs_here = [processes == 1 or (here and i % processes == 0) for i in range(5)]
        assert [ref() is not None for ref in refs] == runs_here
        values = [list(values) for values in results]
    assert [doubled for _, doubled in values] == [2 * n for n in range(5)]
    assert [pid == os.getpid() for pid, _ in values] == runs_here
    assert len({pid for pid, _ in values}) == min(processes, 5)


def _killed_on_three(box: _Box):
    if box.n == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    yield box.n


def test_a_worker_that_dies_raises_the_error_died_made_of_its_item():
    # Box 3 is the worker's second, after box 1; boxes 0 and 2 run here.
    with OrderedMap(_killed_on_three, [_Box(n) for n in range(4)], 2, _died, here=True) as results:
        each = iter(results)
        assert [list(next(each)) for _ in range(3)] == [[0], [1], [2]]
        with pytest.raises(RuntimeError, match="^the process running box 3 ended$"):
            list(next(each))
