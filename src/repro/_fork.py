"""Forked children: the one place this package calls ``os.fork``.

A :class:`Child` runs one call in a forked copy of this process and
sends its return value, or the exception it raised, back pickled
through a pipe; it leaves by ``os._exit``, so nothing of the caller's
stack — ``finally`` blocks, ``atexit`` hooks, buffered output — runs a
second time. The experiments' pool
(:func:`repro.experiments.harness._pool_map`) and the lowering's window
producer (:meth:`repro.simulation.columnar.ColumnarInstance.windows`)
are its two users.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable

#: Whether this process is a :class:`Child`: it is already one of
#: several processes sharing the work, so it starts no producer.
forked = False


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def spare_cpu() -> bool:
    """Whether a helper process could run beside this one: the platform
    forks, this process is not a :class:`Child` itself, and it may run on
    two CPUs or more."""
    return hasattr(os, "fork") and not forked and usable_cpus() >= 2


class Child:
    """``fn(*args)`` running in a forked child.

    :meth:`result` waits for it and returns what it returned, or raises
    what it raised; :meth:`kill` ends it early. Either reaps it, and
    every child must be reaped by one of them (``kill`` after
    ``result`` does nothing).
    """

    def __init__(self, fn: Callable, *args) -> None:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            _serve(fn, args, read, write)
        os.close(write)
        self.pid: int | None = pid
        self._read = read

    def result(self):
        """What the child returned, once it has been reaped; the
        exception it raised is raised here."""
        try:
            with os.fdopen(self._read, "rb") as pipe:
                data = pipe.read()
        finally:
            _pid, status = os.waitpid(self.pid, 0)
            self.pid = None
        if not data:
            raise RuntimeError(
                f"forked child {_pid} exited without a result "
                f"(wait status {status})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def kill(self) -> None:
        """End the child if it has not been reaped yet, and reap it."""
        if self.pid is None:
            return
        import signal

        os.close(self._read)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None


def _serve(fn: Callable, args: tuple, read: int, write: int) -> None:
    """A child's whole life: run ``fn(*args)``, write the pickled
    ``(ok, result or exception)`` to ``write``, and leave by
    ``os._exit`` — never returning into the caller's stack."""
    global forked
    status = 1
    try:
        forked = True
        os.close(read)
        try:
            payload = True, fn(*args)
        except BaseException as exc:
            payload = False, exc
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
