"""Closed-loop benchmark of lotoskit: one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports lotoskit from ``src/``.
The client cycles through the workload's seeded job list, starting each
job when the previous one has finished.  A job is one in-process
``lotoskit.cli.main(argv)`` call with stdout and stderr captured (the
``minimize`` job calls read_aut, minimize and export_aut instead), and
every job's output is checked against the answer known from how its
input was built.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it spends a third of the time untraced, then wraps the
layers' public functions (see layers.py) and reports the per-layer
metrics, the size sweep and the tracing overhead.

The last line of stdout is the result object; the line before it holds
the run's context.  A fuller report (per-job latencies, any failures and,
when traced, the spans) goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import families

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

MIN_JOBS = 100  # so that p90 has at least ten samples beyond it
JOB_LIMIT_S = 30.0
SETUP_REPS = 5
MAX_LOOP_S = 120.0  # keeps a run on a slow machine inside its 180 s
REF_EVERY = 4
REF_NOMINAL_S = 0.045  # the reference kernel's median time where the benchmark was defined

# (name, unit) of the end-to-end metrics, reported with --trace 0
END_TO_END = [
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout


def import_lotoskit():
    """Import lotoskit from this checkout's src/, never from elsewhere."""
    package = SRC / "lotoskit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lotoskit sources in {package}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import lotoskit
    from lotoskit import cli, verify
    elapsed = time.perf_counter() - start
    if Path(lotoskit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported lotoskit from {lotoskit.__file__}, not {package}")
    return cli, verify, elapsed


class Runner:
    def __init__(self, cli, verify, workdir: Path):
        self.cli, self.verify, self.workdir = cli, verify, workdir
        self.tracer = None

    def run_job(self, job: families.Job) -> tuple[float, str | None]:
        """Run one job; returns its time to verdict and, if its answer is
        wrong or it raised or ran out of time, the reason."""
        out, err = io.StringIO(), io.StringIO()
        raised = None
        if self.tracer is not None:
            self.tracer.begin_job(job.name)
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if job.argv is None:
                    text = Path(job.expect["aut"]).read_text()
                    out.write(self.verify.export_aut(self.verify.minimize(self.verify.read_aut(text))))
                    code = 0
                else:
                    code = self.cli.main(job.argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 2
        except JobTimeout:
            raised = f"exceeded its {JOB_LIMIT_S:.0f} s limit"
        except Exception as exc:
            raised = f"raised {type(exc).__name__}: {str(exc)[:120]}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                elapsed = self.tracer.end_job(raised is not None)
        if raised is not None:
            return elapsed, raised
        return elapsed, check.check_job(job.expect, code, out.getvalue(), err.getvalue(), self.workdir)

    def run_cycles(self, jobs, seconds: float, min_jobs: int) -> Loop:
        """Whole cycles through the job list until `seconds` have passed
        and at least `min_jobs` jobs have run, with the reference kernel
        run before every REF_EVERY-th job."""
        loop = Loop([], [], [])
        start = time.perf_counter()
        while True:
            refs = []
            for k, job in enumerate(jobs):
                if k % REF_EVERY == 0:
                    ref_start = time.perf_counter()
                    reference_kernel()
                    refs.append(time.perf_counter() - ref_start)
                elapsed, problem = self.run_job(job)
                loop.latencies.append(elapsed)
                if problem is not None:
                    loop.failures.append((job.name, problem))
            loop.speeds.append(REF_NOMINAL_S / statistics.median(refs))
            spent = time.perf_counter() - start
            if (spent >= seconds and len(loop.latencies) >= min_jobs) or spent >= MAX_LOOP_S:
                return loop


@dataclass
class Loop:
    """Raw measurements of whole cycles: each job's latency in cycle order,
    the failures, and per cycle the machine's speed relative to the
    nominal reference time."""

    latencies: list[float]
    failures: list[tuple[str, str]]
    speeds: list[float]

    def scaled_latencies(self) -> list[float]:
        per_cycle = len(self.latencies) // len(self.speeds)
        return [t * self.speeds[k // per_cycle] for k, t in enumerate(self.latencies)]

    def jobs_per_s(self) -> float:
        """Jobs completed per second of job time, scaled."""
        return len(self.latencies) / sum(self.scaled_latencies())


def reference_kernel() -> int:
    """A fixed piece of Python that shares no code with lotoskit: tuple
    keys counted in a dict, tens of thousands of small strings kept alive
    and sorted.  Like exploration it allocates much and keeps a working set
    of a few megabytes, so its time tracks how fast the machine runs such
    code at the moment."""
    counts: dict[tuple[str, int, int], int] = {}
    kept = []
    for k in range(40000):
        key = (f"g{k % 97}", k % 1013, (k * 7) % 31)
        counts[key] = counts.get(key, 0) + 1
        kept.append(str(k))
    return len(counts) + len(sorted(kept[::7]))


def set_up(name: str, seed: int, cli, verify) -> tuple[families.Workload, Runner, float]:
    """Generate the inputs, write them and run the warm-up jobs, SETUP_REPS
    times over; returns the last set and the median time one took."""
    corpus_dir = ROOT / "corpus"
    corpus = {p.name: p.read_text() for p in corpus_dir.iterdir() if p.is_file()} \
        if corpus_dir.is_dir() else {}
    times = []
    runner = None
    for _ in range(SETUP_REPS):
        if runner is not None:
            shutil.rmtree(runner.workdir)
        start = time.perf_counter()
        workload = families.WORKLOADS[name](seed, corpus)
        workdir = WORK / f"{name}-{seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        for fname, text in workload.files.items():
            (workdir / fname).write_text(text)
        runner = Runner(cli, verify, workdir)
        os.chdir(workdir)
        for job in workload.warmup:
            runner.run_job(job)
        times.append(time.perf_counter() - start)
    return workload, runner, statistics.median(times)


def per_job_ms(jobs: list[families.Job], latencies: list[float]) -> dict[str, float]:
    """Median latency of each job over the cycles; latencies come in
    cycle order."""
    return {job.name: 1000 * statistics.median(latencies[k::len(jobs)])
            for k, job in enumerate(jobs)}


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def context(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(families.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, verify, import_s = import_lotoskit()
    home = os.getcwd()
    signal.signal(signal.SIGALRM, _alarm)
    runner = None
    try:
        workload, runner, setup_s = set_up(args.workload, args.seed, cli, verify)
        if args.trace:
            report = traced_run(runner, workload, args.seconds)
        else:
            loop = runner.run_cycles(workload.jobs, args.seconds, MIN_JOBS)
            latencies = loop.scaled_latencies()
            speed = statistics.median(loop.speeds)
            report = {
                "attempted": len(latencies),
                "failures": loop.failures,
                "metrics": {
                    "jobs_per_s": loop.jobs_per_s(),
                    "latency_p50_ms": 1000 * statistics.median(latencies),
                    "latency_p90_ms": 1000 * _quantile(latencies, 9),
                    "ok_share": 1 - len(loop.failures) / len(latencies),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "setup_s": (import_s + setup_s) * speed,
                },
                "units": dict(END_TO_END),
                "cycles": len(loop.speeds),
                "speed": speed,
                "raw": {
                    "jobs_per_s": len(loop.latencies) / sum(loop.latencies),
                    "latency_p50_ms": 1000 * statistics.median(loop.latencies),
                    "latency_p90_ms": 1000 * _quantile(loop.latencies, 9),
                    "setup_s": import_s + setup_s,
                },
                "job_ms": per_job_ms(workload.jobs, loop.latencies),
            }
    finally:
        os.chdir(home)
        if runner is not None:
            shutil.rmtree(runner.workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()

    ctx = context(args.workload, args.seed)
    failures = report.pop("failures")
    for name, problem in failures[:20]:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = report.pop("tracer", None)
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{stem}-spans.jsonl")
    full = {"context": ctx, "failures": failures, **report}
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")

    units = report["units"]
    print(json.dumps({"context": ctx, "samples": report["attempted"], "cycles": report["cycles"]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    }))
    return 0


def traced_run(runner: Runner, workload: families.Workload, seconds: float) -> dict:
    import layers

    untraced = runner.run_cycles(workload.jobs, seconds / 3, 0)
    tracer = layers.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        traced = runner.run_cycles(workload.jobs, 2 * seconds / 3, 0)
    finally:
        tracer.uninstall()
        runner.tracer = None
    jobs_by_name = {job.name: job for job in workload.jobs}
    metrics = layers.layer_metrics(tracer, jobs_by_name, len(traced.speeds))
    off, on = untraced.jobs_per_s(), traced.jobs_per_s()
    metrics["trace.jobs_per_s_untraced"] = off
    metrics["trace.jobs_per_s_traced"] = on
    metrics["trace.overhead_ratio"] = off / on - 1
    return {
        "attempted": len(untraced.latencies) + len(traced.latencies),
        "failures": untraced.failures + traced.failures,
        "metrics": {name: metrics[name] for name, _, _ in layers.PER_LAYER},
        "units": {name: unit for name, unit, _ in layers.PER_LAYER},
        "cycles": len(traced.speeds),
        "speed": statistics.median(traced.speeds),
        "job_ms": per_job_ms(workload.jobs, traced.latencies),
        "tracer": tracer,
    }


if __name__ == "__main__":
    sys.exit(main())
