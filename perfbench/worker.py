"""Run benchmark jobs through haarcp.cli.main in a fresh process.

    python3 worker.py SPAWN_TIME JOBS_JSON OUT_JSON MODE

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so setup time covers interpreter start-up and the import of
haarcp.cli, the import a user of the haarcp command pays.  MODE is
"plain", "trace" (spans and counters) or "peak" (tracemalloc peak around
the table builds).  Jobs run one at a time, each with stdout and stderr
captured; the results go to OUT_JSON.
"""

import sys
import time

SPAWN = float(sys.argv[1])
import haarcp.cli  # noqa: E402

SETUP_S = time.monotonic() - SPAWN

import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

PROBE_EVERY_S = 0.02


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_EVERY_S, also inside jobs.

    A real-time interval timer interrupts the job between bytecodes and the
    handler runs the loop: tuple composition of permutations and dict
    lookups, the work of closure and Cayley-table construction.  Its time
    tracks how fast the machine runs Python code at that moment.  The time
    spent in the handler is recorded, so it can be taken out of job times.
    """

    PERMS = sorted(itertools.permutations(range(5)))
    INDEX = {p: i for i, p in enumerate(PERMS)}

    def __init__(self, t0: float):
        self.t0 = t0
        self.samples: list[tuple[float, float]] = []  # (time since t0, loop seconds)
        self.spent = 0.0  # seconds spent in the handler so far
        for _ in range(20):  # settle allocations before the first sample
            self.loop()

    def loop(self) -> float:
        start = time.perf_counter()
        for p in self.PERMS[:3]:
            for q in self.PERMS:
                self.INDEX[tuple(q[i] for i in p)]
        return time.perf_counter() - start

    def handler(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append((start - self.t0, self.loop()))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.handler(None, None)  # so that even an empty pass has a sample
        signal.signal(signal.SIGALRM, self.handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_jobs(jobs, tracer):
    """Run every job once; each result is [start, end, rc, stdout, error, probe seconds]."""
    results = []
    t0 = time.perf_counter()
    probe = SpeedProbe(t0)
    with probe:
        for i, argv in enumerate(jobs):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.job = i
            exc = None
            spent = probe.spent
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = haarcp.cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
                exc = f"SystemExit({e.code!r})"
            except Exception:
                rc, exc = None, traceback.format_exc(limit=3)
            end = time.perf_counter()
            results.append([start - t0, end - t0, rc, out.getvalue(), exc,
                            probe.spent - spent])
        wall = time.perf_counter() - t0
    return results, wall, probe


def main():
    jobs_path, out_path, mode = sys.argv[2], sys.argv[3], sys.argv[4]
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = peak = None
    if mode == "trace":
        import tracing
        tracer = tracing.install()
    elif mode == "peak":
        import tracing
        peak = tracing.install_table_peak()
    results, wall, speed = run_jobs(jobs, tracer)
    report = {
        "setup_s": SETUP_S,
        "probe": speed.samples,
        "probe_s": speed.spent,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": results,
    }
    if tracer is not None:
        report["trace"] = {"names": tracer.names, "spans": tracer.spans,
                           "counters": tracer.counters,
                           "largest_table": tracer.largest_table}
    if peak is not None:
        report["table_peak"] = peak.best
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
