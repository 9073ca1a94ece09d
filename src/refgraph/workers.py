"""An ordered map over forked worker processes.

:class:`OrderedMap` deals its items round-robin to children made with
``os.fork``, one pipe each, and gives back what each item's work gave in
item order, so the values and the errors are those of running the work on
the items one after another.  Plain ``os.fork``, ``os.pipe`` and ``pickle``
are used, not ``multiprocessing``, whose import alone costs every process
milliseconds and a megabyte.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import BinaryIO, Callable, Generic, Iterable, Iterator, Sequence, TypeVar

Item = TypeVar("Item")


class OrderedMap(Generic[Item]):
    """Per item of ``items`` in order, an iterator over the values
    ``work(item)`` gives, none of them None.

    The items are dealt round-robin to ``min(len(items), processes)``
    children, forked when the map is made.  A child runs ``work`` on its
    items in order and pickles each value up its pipe, then None, or the
    exception that ended the item; an item's iterator raises that exception
    in this process, and ``died(item)`` if the child ended before it was
    done.  Each iterator must be used up before the next is taken.  With
    ``here``, this process takes the first share itself and forks one child
    fewer.  With one process, and for the items of children a failed fork
    left out, ``work`` runs in this process.  Once the children are forked,
    the map holds an item dealt to one of them only as the error ``died``
    makes of it, so a caller that lets go of its items frees what they
    hold for the work done here.  A child leaves only through ``os._exit``, so
    nothing of this process (exit handlers, buffered output, the rest of the
    command) runs twice.  :meth:`close`, which ``with`` calls, kills and reaps
    every child and closes its pipe.
    """

    def __init__(self, work: Callable[[Item], Iterable], items: Sequence[Item], processes: int,
                 died: Callable[[Item], Exception], here: bool = False):
        self._work, self._items = work, list(items)
        self._n = min(len(items), processes)
        self._here = int(here)  # the shares before the children's, run in this process
        self._children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe), share by share
        try:
            while self._n > 1 and self._here + len(self._children) < self._n:
                if not self._fork():
                    break
        except BaseException:
            self.close()
            raise
        for i, item in enumerate(self._items):
            if self._child(i) is not None:
                self._items[i] = died(item)

    def _child(self, i: int) -> BinaryIO | None:
        """The pipe of the child that runs item ``i``, or None if it runs here."""
        child = i % self._n - self._here
        return self._children[child][1] if 0 <= child < len(self._children) else None

    def _fork(self) -> bool:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # the items left run in this process
            os.close(read)
            os.close(write)
            return False
        if not pid:
            try:
                for fd in [read, *(pipe.fileno() for _, pipe in self._children)]:  # so it cannot block on a dead parent
                    os.close(fd)
                with open(write, "wb") as pipe:
                    for item in self._items[self._here + len(self._children)::self._n]:
                        try:
                            for value in self._work(item):
                                pickle.dump(value, pipe)
                            value = None
                        except Exception as exc:  # raised in the parent, in item order
                            value = exc
                        pickle.dump(value, pipe)  # the end of the item
                        pipe.flush()
            finally:
                os._exit(0)
        os.close(write)
        self._children.append((pid, open(read, "rb")))
        return True

    def __iter__(self) -> Iterator[Iterator]:
        for i, item in enumerate(self._items):
            pipe = self._child(i)
            yield self._work(item) if pipe is None else self._received(pipe, item)

    def _received(self, pipe: BinaryIO, died: Exception) -> Iterator:
        while True:
            try:
                value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the child died mid-item: killed, say, or out of memory
                raise died from None
            if value is None:
                return
            if isinstance(value, Exception):
                raise value
            yield value

    def close(self) -> None:
        while self._children:
            pid, pipe = self._children.pop()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()

    def __enter__(self) -> OrderedMap[Item]:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
