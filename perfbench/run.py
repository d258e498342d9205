"""haarcp benchmark: seeded CLI workloads, end-to-end timings and per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   # every workload in turn

Run from the root of a checkout.  The workload's spec files are generated
from the seed into a scratch directory inside the checkout, each job's
expected output is computed by reference.py, and the jobs then run through
haarcp.cli.main in fresh worker processes (worker.py), one pass over every
job per process, until the time budget is spent.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, measured in
separate traced passes.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One job at a time on a small machine: keep numpy's thread pools at one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_PASSES = 4  # passes per measured phase, whatever the budget
SETUP_SPAWNS = 5  # extra import-only processes for setup_s
RUN_LIMIT_S = 170.0  # every worker is stopped by then
# Times are in seconds on a machine where one round of the worker's speed
# probe loop takes PROBE_REF_S (see job_times).
PROBE_REF_S = 0.00027

# Informational rows of the ROADMAP item 1 baseline: label, function, tag
# test, and the ROADMAP's single-run figure.
ROADMAP_ROWS = [
    ("symmetric(6)", "builders.symmetric", lambda t: t == "n=6", "0.81 s"),
    ("close_generators S6 (720)", "groups.close_generators", lambda t: t == "order=720", "0.86 s"),
    ("S6 pair count", "cp.cp_pair_count", lambda t: t.endswith("|720"), "26 ms"),
    ("S6 class count", "cp.cp_class_count", lambda t: t.endswith("|720"), "3.5 ms"),
    ("S6 coset formula", "cp.cp_coset_formula", lambda t: t.endswith("|720"), "144 ms"),
    ("S6 derived subgroup (first step of is_solvable)", "groups.derived_subgroup_of",
     lambda t: t == "720/720", "204 ms"),
    ("S6 classify_high_cp", "classify.classify_high_cp", lambda t: t.endswith("|720"), "382 ms"),
    ("direct_product(S6, C2) (1440)", "groups.direct_product", lambda t: t == "S6xC2", "2.0 s"),
    ("pair count at 1440", "cp.cp_pair_count", lambda t: t.endswith("|1440"), "164 ms"),
    ("find_stem_group(A5xC6, builtin_corpus(64))", "isoclinism.find_stem_group",
     lambda t: t.endswith("|360"), "~1.2 s"),
    ("cp_monte_carlo T^2 x| C4, 1e6 samples (ROADMAP: 1e5)", "compact.cp_monte_carlo",
     lambda t: "-t2-c4|" in t, "23 ms at 1e5"),
]


class Run:
    """One benchmark run: its scratch directory, deadline and job outcomes."""

    def __init__(self, jobs: list, work: Path):
        self.jobs = jobs
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[float] = []
        self.count = 0
        self.jobs_file = self.write_jobs("jobs.json", [j.argv for j in jobs])

    def write_jobs(self, name: str, argvs) -> Path:
        path = self.work / name
        path.write_text(json.dumps(argvs), encoding="utf-8")
        return path

    def spawn(self, jobs_file: Path, mode: str) -> dict | None:
        """Run one fresh worker process; None if it crashed or ran out of time."""
        self.count += 1
        out = self.work / f"out-{self.count}.json"
        env = {k: v for k, v in os.environ.items() if k != "HAARCP_CAP"}
        env["PYTHONPATH"] = str(SRC)
        timeout = max(1.0, self.deadline - time.monotonic())
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), repr(spawn), str(jobs_file),
                 str(out), mode],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.failures.append(f"worker ({mode}) stopped after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"worker ({mode}) exit {proc.returncode}: {last[0]}")
            return None
        report = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        self.setups.append(report["setup_s"])
        return report

    def check(self, report: dict | None, jobs: list) -> None:
        self.attempted += len(jobs)
        if report is None:
            self.failures += [f"{' '.join(j.argv)}: worker failed" for j in jobs]
            return
        for job, (_s, _e, rc, out, exc, _probe) in zip(jobs, report["jobs"]):
            err = exc or job.check(rc, out)
            if err:
                self.failures.append(f"{' '.join(job.argv)}: {err}")

    def passes(self, mode: str, budget: float) -> list[dict]:
        """Whole passes over every job, each in a fresh process, until the budget is spent."""
        reports: list[dict] = []
        start = time.monotonic()
        while True:
            report = self.spawn(self.jobs_file, mode)
            self.check(report, self.jobs)
            if report is None:
                break
            reports.append(report)
            elapsed = time.monotonic() - start
            if len(reports) >= MIN_PASSES and elapsed * (1 + 1 / len(reports)) > budget:
                break
        return reports


def job_times(report: dict) -> list[float]:
    """Each job's time in seconds at the reference speed.

    The machine this benchmark was built on shares its cores with other
    tenants, and its speed changes by up to 2x, for under a second or for
    minutes.  The worker's speed probe times a fixed loop every 20 ms, also
    in the middle of jobs.  A job's time, less the probe's own time, is
    scaled by PROBE_REF_S over the median probe time within 0.1 s of the job.
    """
    at = [t for t, _ in report["probe"]]
    out = []
    for start, end, _rc, _out, _exc, probe_s in report["jobs"]:
        lo = bisect.bisect_left(at, start - 0.1)
        hi = bisect.bisect_right(at, end + 0.1)
        window = [d for _t, d in report["probe"][lo:hi]] or [
            d for _t, d in report["probe"][max(0, lo - 1):lo + 1]]
        out.append((end - start - probe_s) * PROBE_REF_S / statistics.median(window))
    return out


def pass_scale(report: dict) -> float:
    """The pass's ratio of scaled to raw job time, for scaling spans."""
    busy = sum(e - s - p for s, e, _rc, _out, _exc, p in report["jobs"])
    return sum(job_times(report)) / busy


def run_seconds(reports: list[dict]) -> float:
    """Time to finish every job once: the median over passes of the summed job times."""
    return statistics.median(sum(job_times(r)) for r in reports)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(1, min(99, math.floor(100 * (samples - 10) / samples)))


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(run: Run, reports: list[dict]) -> tuple[dict, list[str]]:
    times = [t for r in reports for t in job_times(r)]
    p = tail_percentile(len(run.jobs) * MIN_PASSES)
    values = {
        "setup_s": statistics.median(run.setups),
        "run_s": run_seconds(reports),
        "job_p50_ms": 1000 * statistics.median(times),
        "job_tail_ms": 1000 * percentile(times, p),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in reports),
    }
    raw = statistics.median(r["wall_s"] - r["probe_s"] for r in reports)
    notes = [
        f"setup_s      median of {len(run.setups)} process starts to `import haarcp.cli` done"
        " (unscaled)",
        f"run_s        median of {len(reports)} passes over {len(run.jobs)} jobs"
        f" (unscaled wall time {raw:.4f} s)",
        f"job_p50_ms   median of {len(times)} job times",
        f"job_tail_ms  p{p} of {len(times)} job times",
        f"peak_rss_mb  median ru_maxrss of the {len(reports)} pass processes",
    ]
    return values, notes


def per_layer(run: Run, plain: list[dict], traced: list[dict], peak: dict | None) -> dict:
    per_pass = []
    for report in traced:
        tr = report["trace"]
        selfs, roots = tracing.self_times(tr["spans"], tr["names"])
        k = pass_scale(report)
        selfs = {name: t * k for name, t in selfs.items()}
        c = tr["counters"]
        m = {f"{name}.self_s": selfs.get(name, 0.0) for name in tr["names"]}
        for layer in tracing.LAYERS:
            m[f"{layer}.self_s"] = sum(s for name, s in selfs.items()
                                       if name.startswith(layer + "."))
        for name in ("groups.derived_subgroup.calls", "isoclinism.find_isoclinism.calls",
                     "isoclinism.is_stem_group.calls", "groups.table_entries",
                     "compact.mc_words"):
            m[name] = c.get(name, 0)
        m["compact.mat_det.outer_calls"] = c.get("compact.mat_det.calls", 0)
        m["isomorphism.alpha_candidates"] = c.get("isomorphism.iter_isomorphisms.yields", 0)
        calls = c.get("isoclinism.find_isoclinism.calls", 0)
        m["isoclinism.find_isoclinism.hit_ratio"] = (
            c.get("isoclinism.find_isoclinism.hits", 0) / calls if calls else 0.0)
        words = c.get("compact.mc_words", 0)
        m["compact.mc_words_used_ratio"] = (
            4 * c.get("compact.mc_samples", 0) / words if words else 0.0)
        m["trace.coverage_ratio"] = roots / report["wall_s"]
        per_pass.append(m)
    keys = set().union(*per_pass)
    values = {k: statistics.median(m.get(k, 0) for m in per_pass) for k in keys}
    values["trace.run_s"] = run_seconds(traced)
    values["trace.overhead_s"] = values["trace.run_s"] - run_seconds(plain)
    values["groups.table_peak_bytes"] = peak["table_peak"][1] if peak else 0
    values["cli.failed_ratio"] = len(run.failures) / max(1, run.attempted)
    return values


def roadmap_rows(traced: list[dict]) -> list[str]:
    lines = []
    for label, fn, test, quoted in ROADMAP_ROWS:
        durations = []
        for report in traced:
            tr = report["trace"]
            fid = tr["names"].index(fn)
            k = pass_scale(report)
            durations += [(end - start) * k for f, start, end, _p, _j, tag in tr["spans"]
                          if f == fid and tag is not None and test(tag)]
        if durations:
            lines.append(f"roadmap-row  {label}: {1000 * statistics.median(durations):.1f} ms"
                         f" (median of {len(durations)} calls; ROADMAP single run {quoted})")
    return lines


def environment(seed: int) -> str:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))}"
            f" python={platform.python_version()} numpy={version('numpy')}"
            f" sympy={version('sympy')} seed={seed} {threads}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, wanted: list) -> dict:
    """One run of one workload; prints its figures and returns the result object."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    values: dict = {}
    try:
        t0 = time.perf_counter()
        jobs = workloads.WORKLOADS[name](random.Random(seed), workloads.Specs(work))
        run = Run(jobs, work)
        print(f"haarcp benchmark: workload={name} seed={seed} seconds={seconds:g}"
              f" trace={int(trace)}")
        print(environment(seed))
        print(f"inputs: {len(jobs)} jobs per pass, generated with reference outputs"
              f" in {time.perf_counter() - t0:.2f} s (untimed)")
        empty = run.write_jobs("empty.json", [])
        for _ in range(SETUP_SPAWNS):
            run.spawn(empty, "plain")
        budget = seconds / 2 if trace else seconds
        plain = run.passes("plain", budget)
        if not plain:
            print("error: no pass completed", file=sys.stderr)
        elif trace:
            traced = run.passes("trace", budget)
            largest_order, job = max(r["trace"]["largest_table"] for r in traced)
            peak = None
            if job >= 0:
                peak = run.spawn(run.write_jobs("peak.json", [jobs[job].argv]), "peak")
                run.check(peak, [jobs[job]])
            values = per_layer(run, plain, traced, peak)
            print(f"trace: {len(traced)} traced passes, {len(plain)} untraced;"
                  f" tracing overhead {values['trace.overhead_s']:+.3f} s per pass;"
                  f" spans cover {values['trace.coverage_ratio']:.4f} of the traced pass"
                  f" ({'ok' if values['trace.coverage_ratio'] >= 0.95 else 'LOW'});"
                  f" largest table {largest_order} (tracemalloc peak"
                  f" {values['groups.table_peak_bytes'] / 2**20:.1f} MiB)")
            for line in roadmap_rows(traced):
                print(line)
            if name == "models":
                print("roadmap-row  haarcp fc on the rank-11 model: not run; one call took"
                      " 118 s, which no run of this benchmark can hold with the other jobs")
        else:
            values, notes = end_to_end(run, plain)
            for note in notes:
                print(note)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failures)
    print(f"failed_ratio {failed / max(1, run.attempted):.6f} (1): {failed} of"
          f" {run.attempted} jobs failed")
    for line in run.failures[:20]:
        print(f"FAIL {line}")
    metrics = {}
    if values:
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:<44} {values[m['name']]:.6g} {m['unit']}")
    return {"correct": failed == 0 and bool(values), "attempted": run.attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    # On SIGTERM, unwind: subprocess.run stops the running worker and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = ROOT / "BENCHMARK.json"
    if not (SRC / "haarcp" / "cli.py").is_file() or not spec.is_file():
        print(f"error: run from a haarcp checkout; {SRC / 'haarcp'} or {spec} is missing",
              file=sys.stderr)
        return 2
    bench = json.loads(spec.read_text(encoding="utf-8"))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), wanted)
        print(json.dumps(result))
        return 0
    results = {}
    for name in workloads.WORKLOADS:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), wanted)
        print()
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
