"""Small launcher that runs benchmark jobs as child processes.

On Linux a child inherits its parent's peak resident size at exec (the kernel
folds the old address space's high-water mark into ``ru_maxrss``), so a child
started by a process that has grown reports the parent's size, not its own.
The harness therefore starts this process before it does any work and sends
it every job: this process stays small, and the peak it reports for a job is
the job's own.

Protocol: one JSON object per line on stdin,
``{"argv", "env", "cwd", "stdout", "stderr", "timeout"}``; one JSON object per
line on stdout, ``{"rc", "wall_s", "maxrss_kb", "timed_out"}``.  The job's
output goes to the named files, never to a pipe, so a job with a large output
cannot block on a pipe nobody reads.  On SIGTERM the running job is killed
and reaped before this process exits.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(job: dict, running: list) -> dict:
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=job["env"], cwd=job["cwd"])
        running.append(proc.pid)
        fired = threading.Event()

        def kill():
            fired.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(job["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            running.remove(proc.pid)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss, "timed_out": fired.is_set()}


def main() -> None:
    running: list[int] = []

    def terminate(signum, _frame):
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line), running)), flush=True)


if __name__ == "__main__":
    main()
