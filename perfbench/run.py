"""latglue benchmark: one seeded, closed-loop, single-client workload per run.

usage: python3 perfbench/run.py --workload {golden,census,isometry,all}
                                [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Untraced (--trace 0), a run measures the
set-up time, then sends one job at a time for S seconds (in whole rounds)
and prints every end-to-end metric with its unit.  Traced (--trace 1), it
runs a fixed job list twice, plain and under the tracer, and prints the
per-layer metrics and the tracing overhead.  Every job's output is
checked; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A record of the run (the
metrics, what the inputs exercised, and the environment) goes to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("golden", "census", "isometry")

SETUP_RUNS = 11         # measured cold starts per run, spread over the loop
VERIFY_PROBES = 11      # verify-table cases processes timed by census/isometry
MIN_ROUNDS = 2
TRACE_ROUNDS = {"golden": 1, "census": 2, "isometry": 3}
# job_tail_s percentile per workload: the highest of p99/p95/p90 with at
# least 10 samples beyond it in a 30 s run at the commit that added the
# benchmark.  It is fixed, not re-chosen per run, so that a faster program
# (more samples) is not compared at a higher percentile than its parent.
TAIL_PERCENTILE = {"golden": 90.0, "census": 95.0, "isometry": 95.0}
# Times are scaled to a reference machine speed.  The host this benchmark
# was tuned on is shared: the speed of fixed Python code drifts by 15-40 %
# between 10 s windows.  So a fixed pure-Python kernel runs after every job
# and every set-up or probe process, and each time is multiplied by
# (CAL_REF_S / median kernel time within WINDOW_S of it) ** CAL_EXPONENT.
# In 2-minute probes repeating a fixed job set, latglue's time moved as the
# kernel's to a power of 0.65-1.0, about 0.75 in the middle; the full ratio
# over-corrected slow phases.  Scaling cut the spread of 10 s window
# medians from 0.16-0.40 to 0.05-0.10 (quartile distance over median).
# CAL_REF_S is about the kernel's time on an idle 2.1 GHz Xeon VM with
# Python 3.11, so values read as seconds on such a machine.  Raw times are
# in the record.
CAL_REF_S = 0.0025
CAL_EXPONENT = 0.75
WINDOW_S = 2.0
MIN_KERNELS = 7
SETUP_CODE = (
    "import latglue.cli\n"
    "from latglue.classify import printed_tables\n"
    "printed_tables()\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("verify_cases_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibration_kernel():
    """Seconds taken by a fixed mix of Fraction, tuple/dict and int work."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7, i % 11 + 1)
    groups: dict = {}
    for i in range(3000):
        key = (i % 5, i % 7, i % 11)
        groups[key] = groups.get(key, ()) + (i,)
    sorted(groups.items())
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    return perf_counter() - start


class Timeline:
    """Raw measurements and kernel samples; scales each to reference speed."""

    def __init__(self):
        self.kernel_at: list[float] = []
        self.kernel_s: list[float] = []
        self.samples: list[tuple] = []  # (start, kind, raw seconds or None, tag)

    def measure(self, kind, thunk, tag=None):
        """Run ``thunk()`` (which returns its raw seconds, or None), then the kernel."""
        start = perf_counter()
        raw = thunk()
        self.samples.append((start, kind, raw, tag))
        self.kernel_at.append(perf_counter())
        self.kernel_s.append(calibration_kernel())
        return raw

    def scale_at(self, t):
        """(CAL_REF_S / median kernel time near ``t``) ** CAL_EXPONENT."""
        lo = bisect_left(self.kernel_at, t - WINDOW_S)
        hi = bisect_right(self.kernel_at, t + WINDOW_S)
        while hi - lo < min(MIN_KERNELS, len(self.kernel_at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.kernel_at))
        return (CAL_REF_S / statistics.median(self.kernel_s[lo:hi])) ** CAL_EXPONENT

    def scaled(self, kind):
        """[(scaled seconds, raw seconds, tag)] of the successful samples of a kind."""
        return [(raw * self.scale_at(t), raw, tag)
                for t, k, raw, tag in self.samples if k == kind and raw is not None]


def tail(samples, percentile):
    """(nearest-rank percentile value, number of samples beyond it)."""
    ordered = sorted(samples)
    idx = max(ceil(percentile / 100 * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - idx - 1


def git_sha():
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def distribution(props):
    """Summaries of what the jobs exercised: histograms, or min/median/max."""
    keys = sorted({k for p in props for k in p})
    summary = {}
    for key in keys:
        values = [p[key] for p in props if p.get(key) is not None]
        if values and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            summary[key] = {
                "min": min(values), "median": statistics.median(values), "max": max(values),
                "histogram": dict(sorted(Counter(values).items())) if len(set(values)) <= 24 else None,
            }
        else:
            summary[key] = dict(sorted(Counter(str(v) for v in values).items()))
    return summary


class NoResult(RuntimeError):
    """Nothing was measured, so there is no result to print."""


class Run:
    """One workload's jobs: runs them one at a time, checks them, counts failures."""

    def __init__(self, name, seed):
        import inputs
        from workloads import WORKLOADS, load_expected

        self.expected = load_expected()
        self.workload = WORKLOADS[name](self.expected)
        # Per-job result digests of the default seed's first rounds.
        self.pinned = self.expected["pinned"].get(name, []) if seed == inputs.DEFAULT_SEED else []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.props: list[dict] = []

    def record(self, problems, props):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems[:3])
        self.props.append(props)

    def do_job(self, job, index):
        """Busy seconds of job number ``index``, or None if it failed to run."""
        from workloads import sha256

        try:
            busy, result = self.workload.run(job)
        except Exception as exc:  # a job that raises counts as failed
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"job {index}: {type(exc).__name__}: {exc}")
            return None
        problems = self.workload.check(job, result)
        if index < len(self.pinned):
            if sha256(self.workload.canonical(result)) != self.pinned[index]:
                problems.append(f"job {index}: result differs from the recorded digest")
        self.record(problems, self.workload.props(job, result))
        return busy


def cold_start():
    """Fresh interpreter to latglue.cli imported and the tables loaded."""
    from workloads import run_child

    wall, proc = run_child([sys.executable, "-c", SETUP_CODE])
    if proc.returncode != 0:
        raise NoResult(f"set-up failed: {proc.stderr.decode(errors='replace')}")
    return wall


def run_untraced(name, args):
    """Closed loop for ``args.seconds``; set-up and probe processes spread over it."""
    import inputs
    from workloads import cli_command, check_cli_output, run_child

    run = Run(name, args.seed)
    verify_argv = ["verify-table", "cases"]

    def probe():
        wall, proc = run_child(cli_command(verify_argv))
        result = {"rc": proc.returncode, "stdout": proc.stdout}
        run.record(check_cli_output(run.expected["golden"], verify_argv, result),
                   {"probe": " ".join(verify_argv)})
        return wall

    # (due at this share of the loop, kind, thunk), earliest first.
    extras = [(i / SETUP_RUNS, "setup", cold_start) for i in range(SETUP_RUNS)]
    if run.workload.in_process:
        extras += [((i + 0.5) / VERIFY_PROBES, "verify", probe) for i in range(VERIFY_PROBES)]
    extras.sort(key=lambda e: e[0])

    timeline = Timeline()
    cold_start()  # the first start also writes the bytecode caches
    rounds = inputs.ROUNDS[name](args.seed)
    index = completed = 0
    start = perf_counter()
    while completed < MIN_ROUNDS or perf_counter() - start < args.seconds:
        while extras and perf_counter() - start >= extras[0][0] * args.seconds:
            _due, kind, thunk = extras.pop(0)
            timeline.measure(kind, thunk)
        for job in next(rounds):
            timeline.measure("job", lambda: run.do_job(job, index), job)
            index += 1
        completed += 1
    wall = perf_counter() - start
    for _due, kind, thunk in extras:
        timeline.measure(kind, thunk)

    jobs = timeline.scaled("job")
    if not jobs:
        raise NoResult("no job completed: " + "; ".join(run.failures[:3]))
    busy = [s for s, _r, _j in jobs]
    setup = [s for s, _r, _t in timeline.scaled("setup")]
    if name == "golden":
        verify = [s for s, _r, job in jobs if inputs.is_verify_cases(job["argv"])]
    else:
        verify = [s for s, _r, _t in timeline.scaled("verify")]
    who = resource.RUSAGE_SELF if run.workload.in_process else resource.RUSAGE_CHILDREN
    pct = TAIL_PERCENTILE[name]
    tail_value, beyond = tail(busy, pct)
    raw_busy = sum(r for _s, r, _j in jobs)
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(busy) / sum(busy),
        "job_p50_s": statistics.median(busy),
        "job_tail_s": tail_value,
        "verify_cases_p50_s": statistics.median(verify),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} cold starts",
        "jobs_per_s": f"{len(busy)} jobs in {completed} rounds, {sum(busy):.3f} s busy "
                      f"(raw {raw_busy:.3f} s) of {wall:.3f} s",
        "job_p50_s": f"{len(busy)} samples",
        "job_tail_s": f"p{pct:g}, {beyond} samples beyond, {len(busy)} samples"
                      + ("" if beyond >= 10 else " (fewer than 10 beyond: read with care)"),
        "verify_cases_p50_s": f"{len(verify)} samples"
                              + ("" if name == "golden" else " (probe processes)"),
        "peak_rss_mb": "ru_maxrss of the " + ("workload process" if run.workload.in_process
                                              else "largest child"),
    }
    scales = [(CAL_REF_S / k) ** CAL_EXPONENT for k in timeline.kernel_s]
    extra = {"rounds": completed, "tail_percentile": pct, "tail_beyond": beyond,
             "wall_s": wall, "busy_s": sum(busy), "raw_busy_s": raw_busy,
             "raw_setup_s": [r for _s, r, _t in timeline.scaled("setup")],
             "kernel_scale_quartiles": statistics.quantiles(scales, n=4)}
    return run, [(k, metrics[k], u, notes[k]) for k, u in END_TO_END], extra


def run_traced(name, args):
    import inputs
    import tracer as tracing

    run = Run(name, args.seed)
    jobs = [job for rnd in inputs.first_rounds(name, args.seed, TRACE_ROUNDS[name]) for job in rnd]

    timeline = Timeline()
    for i, job in enumerate(jobs):
        timeline.measure("plain", lambda: run.do_job(job, i), i)

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    process_start = 0.0
    if run.workload.in_process:
        tracer.install()
        try:
            for i, job in enumerate(jobs):
                tracer.job = i
                timeline.measure("traced", lambda: run.do_job(job, i), i)
        finally:
            tracer.uninstall()
    else:

        def traced_golden_job(i, job, spans_file):
            nonlocal process_start
            run.workload.trace_to = spans_file
            busy = run.do_job(job, i)
            if busy is not None:
                header, spans, counts = tracing.load(spans_file)
                spans = [(sid, parent, i, name, start, end, key)
                         for sid, parent, _job, name, start, end, key in spans]
                tracer.spans.extend(spans)
                tracer.counts.update(counts)
                main = sum(s[5] - s[4] for s in spans if s[3] == "cli.main" and s[1] is None)
                process_start += busy - main - header["install_s"]
            return busy

        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for i, job in enumerate(jobs):
                spans_file = Path(tmp) / f"{i}.json.gz"
                timeline.measure("traced", lambda: traced_golden_job(i, job, spans_file), i)

    plain = {i: s for s, _r, i in timeline.scaled("plain")}
    traced = {i: s for s, _r, i in timeline.scaled("traced")}
    pairs = [(plain[i], traced[i]) for i in plain if i in traced]
    if not pairs:
        raise NoResult("no job completed: " + "; ".join(run.failures[:3]))
    ok_plain, ok_traced = (sum(side) for side in zip(*pairs))
    overhead = ok_traced / ok_plain
    values = tracing.aggregate(tracer.spans, tracer.counts, process_start, overhead)
    tracer.dump(OUT / f"spans-{name}-seed{args.seed}.json.gz")
    units = {n: u for n, u, _b in tracing.per_layer_metric_specs()}
    rows = [(n, values[n], units[n], "") for n, _u, _b in tracing.per_layer_metric_specs()]
    extra = {"jobs": len(jobs), "rounds": TRACE_ROUNDS[name], "spans": len(tracer.spans),
             "untraced_busy_s": ok_plain, "traced_busy_s": ok_traced}
    return run, rows, extra


def run_one(name, args):
    sys.path.insert(0, str(ROOT / "src"))
    env = environment()
    run, rows, extra = (run_traced if args.trace else run_untraced)(name, args)
    failed_ratio = run.failed / run.attempted
    print(f"workload {name} seed {args.seed} trace {args.trace}")
    for metric, value, unit, note in rows:
        print(f"  {metric:<48} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_ratio':<48} {failed_ratio:>14.6g} {'ratio':<6} "
          f"{run.failed}/{run.attempted} jobs")
    for message in run.failures[:10]:
        print(f"  FAILED: {message}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "metrics": {m: {"value": v, "unit": u, "note": n} for m, v, u, n in rows},
        "failed_ratio": failed_ratio, "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures[:50],
        "run": extra,
        "exercised": distribution(run.props),
    }
    path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  record: {path.relative_to(ROOT)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": u} for m, v, u, _n in rows},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "latglue" / "__init__.py").is_file():
        print(f"error: no latglue package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.seed is None:
        import inputs

        args.seed = inputs.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args.workload, args)
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
