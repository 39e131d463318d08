"""Spawn benchmark jobs on request, from a process that stays small.

A child's peak RSS, as os.wait4 reports it, starts from the resident size
of the process that spawned it (Linux carries the old memory map's high-water
mark across exec).  ``run.py`` grows while it holds job outputs, so
jobs are spawned from here instead: this process imports almost nothing.

Protocol, one JSON line each way: {"argv": [...], "timeout": seconds} on
stdin; {"wall_s", "cpu_s", "rss_mb", "exit", "timed_out", "stdout",
"stderr"} on stdout, the two outputs as latin-1 text.  The spawner exits
when its stdin closes.  Jobs run in the spawner's working directory.
"""

import json
import os
import select
import signal
import sys
import time


def spawn(argv: list[str], timeout: float) -> dict:
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    os.close(out_w)
    os.close(err_w)
    bufs = {out_r: bytearray(), err_r: bytearray()}
    pending = [out_r, err_r]
    timed_out = False
    while pending:
        left = t0 + timeout - time.perf_counter()
        if left <= 0:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
            break
        ready, _, _ = select.select(pending, [], [], left)
        for fd in ready:
            chunk = os.read(fd, 1 << 16)
            if chunk:
                bufs[fd].extend(chunk)
            else:
                pending.remove(fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    os.close(out_r)
    os.close(err_r)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "stdout": bufs[out_r].decode("latin-1"),
        "stderr": bufs[err_r].decode("latin-1"),
    }


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(spawn(req["argv"], req["timeout"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
