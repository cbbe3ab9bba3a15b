"""Forked children for independent tasks, joined through pipes.

``fork_map(fn, tasks, workers)`` splits the tasks by position: it forks one
child for each of the last ``workers - 1`` tasks, sweeps the other tasks in
this process, first to last, and then reads each child's ``fn(task)``, sent
back as one ``marshal`` payload on the child's own pipe.  So ``fn`` must
return builtin types only (tuples, lists, ints, strings, bools, None and the
like): ``marshal`` refuses an instance of any other class, a tuple subclass
included, and the child then fails.  This process reaps every child (so its
CPU time counts as this process's children's) and returns the results in
task order.  A child that fails makes ``fork_map`` raise; on any error here,
an error from ``fn`` in this process or an interrupt included, every child
still running is killed and reaped.

``marshal`` is built into the interpreter, so nothing is imported to send
the results; ``cli`` imports this module only when it fans out.
"""

from __future__ import annotations

import marshal
import os
import sys
from collections.abc import Callable


def fork_map(fn: Callable[[object], object], tasks: list, workers: int) -> list:
    """``[fn(task) for task in tasks]`` on ``workers`` processes, this one
    included (``1 <= workers <= len(tasks)``; the caller checks that
    ``os.fork`` exists): each of the last ``workers - 1`` tasks runs in a
    forked child of its own, the others run here.  A child sends its result
    as one ``marshal`` payload, so ``fn`` returns builtin types only; a
    result ``marshal`` refuses fails its child, and this call raises
    RuntimeError."""
    head = len(tasks) - workers + 1
    sys.stdout.flush()
    sys.stderr.flush()
    fds: set[int] = set()  # this process's pipe ends still open
    running: dict[int, int] = {}  # child pid -> read end of its result pipe
    try:
        for task in tasks[head:]:
            source, sink = os.pipe()
            fds |= {source, sink}
            pid = os.fork()
            if pid == 0:
                _work(fn, task, source, sink)
            fds.discard(sink)
            os.close(sink)  # so the next child does not hold it open
            running[pid] = source
        results = [fn(task) for task in tasks[:head]]
        payloads = [_read(source) for source in running.values()]
        failures = []
        for pid in list(running):
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if status:
                failures.append(f"exited with {status}" if status > 0 else f"got signal {-status}")
        if failures:
            raise RuntimeError(f"worker failed: {', '.join(failures)}")
    finally:
        if running:
            import signal

            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    return results + [marshal.loads(payload) for payload in payloads]


def _work(fn: Callable, task: object, source: int, sink: int) -> None:
    """A forked child's whole life: run ``fn`` on its task, send the result
    down ``sink`` and leave the process, never returning into the caller."""
    code = 1
    try:
        os.close(source)
        _write_all(sink, marshal.dumps(fn(task)))
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _read(fd: int) -> bytes:
    """Everything ``fd`` holds, up to end of file."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
