"""Benchmark of the circlekit command line, one fresh process per job.

    python3 perfbench/run.py --workload separable --seed 7 --trace 0

One client runs a workload's jobs one at a time, each as
``python -m circlekit.cli ...`` with ``PYTHONPATH=src`` (a closed loop with a
single client).  Every job's output is checked against ``oracles.py``.  Each
session gets its own empty ``CIRCLEKIT_CACHE`` directory.

With ``--trace 0`` the run samples start-up time, then repeats sessions for
``--seconds`` seconds and reports the end-to-end metrics named in
BENCHMARK.json from the median wall time of each job.  With ``--trace 1`` it
runs one untraced session, one session whose jobs run under ``trace_job.py``
(spans around every layer), and ``python -X importtime``, and reports the
per-layer metrics.  The last line of stdout is the JSON result; the full
record of a run (environment, seed, every job) is also written to
``perfbench/work/results``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles as o

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_SAMPLES = 3        # `--version` spawns per run; setup_s is the median
IMPORTTIME_SAMPLES = 3   # fresh `-X importtime` interpreters per traced run
RUN_BUDGET_S = 170       # a job still running this long after start is killed
CLI = (sys.executable, "-m", "circlekit.cli")

FORMS = {
    "five_squares": o.five_squares(12005),
    # 2045 keeps 12005's class 5 mod 24 but has solutions with N = 30
    "five_squares_2045": o.five_squares(2045),
    "cone": o.CONE,
    "hyperbolic": o.HYPERBOLIC,
    "two_squares": o.TWO_SQUARES,
}
ARC_CENTRES = {(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)}


@dataclass(frozen=True)
class Job:
    kind: str        # predict, count, series, sigma_inf, weyl_scan, short_job
    args: tuple      # circlekit command line
    check: object    # stdout -> None, raises oracles.CheckFailed


def poly(name):
    return str((WORK / "polys" / f"{name}.txt").relative_to(ROOT))


# -- job builders (the self-test reuses them with smaller sizes) -------------

def predict_job(c, N, prime_bound, seed):
    return Job("predict", (
        "predict", "--poly", poly("five_squares"), "--N", str(N),
        "--prime-bound", str(prime_bound), "--ground-truth",
        "--strategy", "mitm", "--split", "2", "--seed", str(seed)),
        o.check_predict(c, N, prime_bound))


def five_squares_count_job(name, c, N, *strategy):
    return Job("count", ("count", "--poly", poly(name), "--N", str(N),
                         *strategy),
               o.check_count(o.five_squares_count(c, N)))


def cone_count_job(N):
    return Job("count", ("count", "--poly", poly("cone"), "--N", str(N)),
               o.check_count(o.cone_count(N)))


def weyl_job(name, N, points):
    return Job("weyl_scan", ("weyl-scan", "--poly", poly(name), "--N", str(N),
                             "--points", str(points)),
               o.check_weyl_scan(FORMS[name], N, points))


def cone_series_job(prime_bound):
    return Job("series", ("series", "--poly", poly("cone"),
                          "--prime-bound", str(prime_bound)),
               o.check_series(lambda p: Fraction(p, p - 1), prime_bound))


def five_squares_series_job(prime_bound):
    return Job("series", ("series", "--poly", poly("five_squares"),
                          "--prime-bound", str(prime_bound)),
               o.check_series(lambda p: o.five_squares_mu(12005, p),
                              prime_bound))


def sigma_inf_job(seed, *box):
    return Job("sigma_inf", ("sigma-inf", "--poly", poly("cone"),
                             "--seed", str(seed), *box),
               o.check_sigma_inf(2.0))


def short_jobs_list():
    return [
        Job("short_job", ("hinv", "--poly", poly("hyperbolic")),
            o.check_field("h_value", 2)),
        Job("short_job", ("local", "--poly", poly("five_squares"), "--p", "7"),
            o.check_local(o.five_squares_mu(12005, 7))),
        Job("short_job", ("arcs", "--N", "100", "--d", "2"),
            o.check_arcs(ARC_CENTRES)),
        Job("short_job", ("zcount", "--poly", poly("hyperbolic"),
                          "--R", "3", "--R", "5", "--R", "8"),
            o.check_field("z_counts", [1, 1, 1])),
        Job("short_job", ("regularity", "--poly", poly("two_squares"),
                          "--N-list", "5", "--N-list", "10", "--N-list", "20"),
            o.check_field("counts", [8, 8, 8])),
    ]


def workload(name, seed):
    """The job list of one session.  Why each workload exists is in README."""
    if name == "separable":
        # the second series call reads the local factors the first one cached
        series = five_squares_series_job(200)
        return [predict_job(12005, 110, 200, seed),
                five_squares_count_job("five_squares_2045", 2045, 30),
                weyl_job("five_squares", 20, 4),
                *short_jobs_list(), series, series]
    if name == "nonseparable":
        return [cone_series_job(60), sigma_inf_job(seed),
                cone_count_job(1500), weyl_job("cone", 200, 16)]
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("separable", "nonseparable")


# -- running jobs ------------------------------------------------------------

@dataclass
class Outcome:
    kind: str
    args: tuple
    wall_s: float
    rss_mb: float
    stdout_bytes: int
    code: int
    failure: str | None


def judge(code, stdout, check):
    """Why a job's result is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        check(stdout)
    except o.CheckFailed as exc:
        return str(exc)
    return None


def write_polys():
    (WORK / "polys").mkdir(parents=True, exist_ok=True)
    for name, terms in FORMS.items():
        (WORK / "polys" / f"{name}.txt").write_text(o.poly_text(terms))


def cli_env(cache):
    env = dict(os.environ, CIRCLEKIT_CACHE=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    def __init__(self, started):
        self.deadline = started + RUN_BUDGET_S
        self.out = WORK / f"job-{os.getpid()}.out"
        self.err = WORK / f"job-{os.getpid()}.err"
        self.outcomes = []

    def spawn(self, argv, env):
        """Run argv to its end; (wall s, max RSS MB, exit code, out, err)."""
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=ROOT)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_maxrss / 1024, proc.returncode,
                self.out.read_text(), self.err.read_text())

    def run(self, job, env, prefix=CLI):
        wall, rss, code, out, err = self.spawn([*prefix, *job.args], env)
        failure = judge(code, out, job.check)
        if failure and err.strip():
            failure += " | " + err.strip().splitlines()[-1]
        res = Outcome(job.kind, job.args, wall, rss, len(out.encode()), code,
                      failure)
        self.outcomes.append(res)
        return res

    def session(self, jobs, tag, prefix=lambda i: CLI, fits=lambda i: True):
        """Jobs in order against a fresh cache; (wall s, outcomes).

        prefix(i) is the command that runs the i-th job's CLI arguments.  The
        session stops before the first job i for which fits(i) is false.
        """
        cache = WORK / f"cache-{os.getpid()}-{tag}"
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
        env = cli_env(cache)
        t0 = time.perf_counter()
        results = []
        for i, job in enumerate(jobs):
            if not fits(i):
                break
            results.append(self.run(job, env, prefix(i)))
        wall = time.perf_counter() - t0
        shutil.rmtree(cache)
        return wall, results

    def close(self):
        for path in (self.out, self.err):
            path.unlink(missing_ok=True)


def job_times(results):
    """Per-kind wall time of one session: sums, except short jobs' median.

    results are (kind, wall s) pairs, one per job of the session.
    """
    times = {}
    for kind, wall in results:
        times.setdefault(kind, []).append(wall)
    return {f"{k}_s": statistics.median(v) if k == "short_job" else sum(v)
            for k, v in times.items()}


# -- the two kinds of run ----------------------------------------------------

def measure(runner, jobs, seconds):
    """End-to-end metrics from untraced sessions.

    Sessions repeat until `seconds` are used.  Once every job has run, a job
    starts only if its last wall time still fits in the time left, so the
    last session may stop part way.  The metrics describe a median session:
    each job's median wall time over the run, summed over the job list, so a
    stall moves one sample of one job rather than a whole session.
    """
    version = Job("setup", ("--version",), o.check_version)
    env = cli_env(WORK / f"cache-{os.getpid()}-setup")
    setup = [runner.run(version, env).wall_s for _ in range(SETUP_SAMPLES)]
    samples = [[] for _ in jobs]
    end = time.monotonic() + seconds

    def fits(i):
        return (not samples[i]
                or time.monotonic() + samples[i][-1].wall_s <= end)

    while True:
        _, results = runner.session(jobs, len(samples[0]), fits=fits)
        for i, r in enumerate(results):
            samples[i].append(r)
        if len(results) < len(jobs) or time.monotonic() >= end:
            break
    walls = [statistics.median(r.wall_s for r in rs) for rs in samples]
    values = {
        "session_s": sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in rs)
                           for rs in samples),
        "sessions": len(samples[0]),
        "samples_per_job": [len(rs) for rs in samples],
    }
    values.update(job_times((job.kind, w) for job, w in zip(jobs, walls)))
    return values


def import_times(runner):
    """Cumulative import times of `import circlekit.cli`, fresh interpreter."""
    code = ("import sys; sys.stderr.write('@@start\\n'); sys.stderr.flush(); "
            "import circlekit.cli")
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        wall, _, status, _, err = runner.spawn(
            [sys.executable, "-X", "importtime", "-c", code],
            cli_env(WORK / "cache-unused"))
        runner.outcomes.append(Outcome(
            "importtime", ("-X", "importtime"), wall, 0.0, 0, status,
            None if status == 0 and "@@start" in err else "import failed"))
        total, named = 0, {}
        for line in err.partition("@@start\n")[2].splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cum, name = int(parts[1]), parts[2][1:]
            if not name.startswith(" "):
                total += cum
            named[name.strip()] = cum
        samples.append({
            "cli.import_s": total / 1e6,
            "cli.import.scipy_stats_s": named.get("scipy.stats", 0) / 1e6,
            "cli.import.sympy_s": named.get("sympy", 0) / 1e6,
            "cli.import.numpy_s": named.get("numpy", 0) / 1e6,
        })
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def trace(runner, jobs):
    """Per-layer metrics: one untraced session, then one traced session."""
    plain_wall, plain = runner.session(jobs, "plain")
    spans = [WORK / f"spans-{os.getpid()}-{i}.json" for i in range(len(jobs))]
    traced_wall, traced = runner.session(
        jobs, "traced",
        lambda i: (sys.executable, str(HERE / "trace_job.py"), str(spans[i])))
    values = {}
    for path in spans:
        if not path.exists():       # the job died early; it counts as failed
            continue
        for key, v in json.loads(path.read_text()).items():
            values[key] = values.get(key, 0) + v
        path.unlink()
    values["cli.report_bytes"] = sum(r.stdout_bytes for r in traced)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    values["trace.untraced_session_s"] = plain_wall
    for key, v in job_times((r.kind, r.wall_s) for r in plain).items():
        values[f"job.{key}"] = v
    values.update(import_times(runner))
    return values


# -- reporting ---------------------------------------------------------------

def environment():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            **{pkg: version(pkg) for pkg in ("numpy", "scipy", "sympy")}}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7,
                    help="Sobol seed passed to predict and sigma-inf")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "circlekit" / "cli.py").is_file():
        print(f"error: no circlekit sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still kills and reaps the job it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    write_polys()
    seed = args.seed % 2 ** 32
    jobs = workload(args.workload, seed)
    runner = Runner(started)
    try:
        if args.trace:
            values = trace(runner, jobs)
            wanted = spec["per_layer"]
        else:
            values = measure(runner, jobs, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        runner.close()

    failed = [r for r in runner.outcomes if r.failure]
    values["failed_frac"] = len(failed) / len(runner.outcomes)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace,
              "environment": environment(), "values": values,
              "jobs": [vars(r) for r in runner.outcomes]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
     f"-{os.getpid()}.json").write_text(json.dumps(record, indent=1))

    for r in runner.outcomes:
        print(f"{r.wall_s:8.3f} s {r.rss_mb:7.1f} MB  {' '.join(r.args)}"
              + (f"  FAILED: {r.failure}" if r.failure else ""))
    for key, v in values.items():
        if v:
            print(f"{key} = {v}")
    # a layer that no traced job reached reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if args.trace
                           else values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not failed, "attempted": len(runner.outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
