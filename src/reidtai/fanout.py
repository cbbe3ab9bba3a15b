"""Forked workers for independent tasks, joined through pipes.

``fork_map(fn, tasks, workers)`` forks the workers, hands the tasks out one
at a time as 4-byte indices on a shared token pipe (first task first, so
the workers balance on their own), and collects each worker's
``(index, fn(task))`` list, sent back as one pickle on the worker's own
pipe.  Only the workers call ``fn``; this process writes the tokens, reads
the results, reaps every worker (so its CPU time counts as this process's
children's) and returns the results in task order.  A worker that fails
makes ``fork_map`` raise; on any error here, an interrupt included, every
worker still running is killed and reaped.

``cli`` imports this module only when it fans out, so a serial run never
loads it or ``pickle``.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
from collections.abc import Callable


def fork_map(fn: Callable[[object], object], tasks: list, workers: int) -> list:
    """``[fn(task) for task in tasks]``, computed on ``workers`` forked
    processes (the caller checks that ``os.fork`` exists)."""
    sys.stdout.flush()
    sys.stderr.flush()
    tokens, token_sink = os.pipe()
    fds = {tokens, token_sink}  # this process's pipe ends still open

    def close(fd: int) -> None:
        fds.discard(fd)
        os.close(fd)

    running: dict[int, int] = {}  # worker pid -> read end of its result pipe
    try:
        for _ in range(workers):
            source, sink = os.pipe()
            fds |= {source, sink}
            pid = os.fork()
            if pid == 0:
                _work(fn, tasks, tokens, token_sink, source, sink)
            close(sink)  # so the next worker does not hold it open
            running[pid] = source
        close(tokens)  # a write with no worker left then fails, not blocks
        # written after forking: more tokens than a pipe holds cannot block
        # before any worker reads
        _write_all(token_sink, struct.pack(f"<{len(tasks)}I", *range(len(tasks))))
        close(token_sink)
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
    results = dict(item for payload in payloads for item in pickle.loads(payload))
    return [results[index] for index in range(len(tasks))]


def _work(
    fn: Callable, tasks: list, tokens: int, token_sink: int, source: int, sink: int
) -> None:
    """A forked worker's whole life: run ``fn`` on the tasks whose indices
    it reads from ``tokens`` until end of file, send the results down
    ``sink`` and leave the process, never returning into the caller."""
    code = 1
    try:
        os.close(token_sink)
        os.close(source)
        done = []
        while token := _read(tokens, 4):
            [index] = struct.unpack("<I", token)
            done.append((index, fn(tasks[index])))
        _write_all(sink, pickle.dumps(done))
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _read(fd: int, size: int = sys.maxsize) -> bytes:
    """``size`` bytes from ``fd``, or all of them up to end of file; fewer
    only at end of file."""
    chunks = []
    while size and (chunk := os.read(fd, min(size, 1 << 16))):
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
