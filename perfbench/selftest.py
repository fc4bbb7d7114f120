"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs every kind of benchmark job once, in this process and at reduced sizes,
and checks each output against its oracle; all must pass.  Then it feeds the
checks deliberately corrupted outputs, each of which must be counted as
failed.  Exits 0 only when both hold.  Takes a few seconds.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run

CASES = [
    run.predict_job(12005, 110, 50, 7),
    run.five_squares_count_job("five_squares_2045", 2045, 30,
                               "--strategy", "mitm", "--split", "2"),
    run.weyl_job("five_squares", 12, 2),
    run.cone_series_job(20),
    run.sigma_inf_job(7, "--box-points", "65536"),
    run.cone_count_job(300),
    run.weyl_job("cone", 50, 8),
    *run.short_jobs_list(),
    run.five_squares_series_job(50),
    run.five_squares_series_job(50),    # reads what the first one cached
]


def _scale_value(stdout, factor):
    report = json.loads(stdout)
    report["result"]["value"] *= factor
    return json.dumps(report)


# (index into CASES, corruption): each result must be judged wrong
CORRUPTIONS = [
    (7, lambda out: out.replace('"h_value": 2', '"h_value": 3')),
    (5, lambda out: _scale_value(out, 1 + 1e-9)),
    (6, lambda out: out.replace(",0/1\n", ",minor\n", 1)),
]


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    from circlekit import cli

    run.write_polys()
    cache = run.WORK / f"selftest-cache-{os.getpid()}"
    shutil.rmtree(cache, ignore_errors=True)
    os.environ["CIRCLEKIT_CACHE"] = str(cache)
    outputs, bad = [], 0
    try:
        for job in CASES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(job.args))
            outputs.append(buf.getvalue())
            failure = run.judge(code, buf.getvalue(), job.check)
            bad += failure is not None
            print(f"{'FAIL' if failure else 'ok  '} {' '.join(job.args)}"
                  + (f": {failure}" if failure else ""))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    for i, corrupt in CORRUPTIONS:
        job = CASES[i]
        failure = run.judge(0, corrupt(outputs[i]), job.check)
        bad += failure is None
        print(f"{'ok  ' if failure else 'FAIL'} corrupted "
              f"{' '.join(job.args[:1])} output is counted as failed"
              + (f": {failure}" if failure else ""))
    print(f"{len(CASES)} outputs checked, {len(CORRUPTIONS)} corrupted "
          f"outputs fed back, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
