"""polyqec benchmark: seeded workloads through the ``polyqec`` command, in-process.

Usage, from the repository root::

    python3 bench/run.py --workload bb-params --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

* ``bb-params`` — ``params`` on BB-form pairs over tori with n = 144..4608:
  literature polynomials where k > 0, random pairs, twisted boundaries;
* ``bb-search`` — ``distance --method random --threads 2`` on the published
  bivariate-bicycle codes: doubling trial ladders until the published
  distance, plus fixed-budget searches on bb756, bb784 and gross 48x24;
* ``exact-small`` — ``distance --method exact`` and ``barrier`` on small tori,
  plus five heavy jobs with raised caps;
* ``symbolic-cli`` — ``check``, ``classify``, ``lift`` and ``bounds --n`` on
  random pairs in 2-4 variables, plus ``reproduce-appendix``.

One client runs the jobs one after another (closed loop) through
``polyqec.cli.main`` with ``--json --no-cache`` and ``POLYQEC_CACHE_DIR``
set to an empty directory of its own.  Every seed gets the same jobs; the
seed sets their order.  A run repeats the job list (a *pass*) a fixed
number of times, ``round(--seconds / PASS_SECONDS[workload])``, where
``PASS_SECONDS`` is the nominal pass time at the parent commit, so the
sample count never depends on the speed of the code measured.  Every
answer is checked after each pass (``checks.py``).  The last line of
standard output is the result object.  The line before it holds the run
metadata (cpu count, Python, commit, seed, job and sample counts, cache
bypass, ``failed_frac``) and the figures of one workload only:
``time_to_d_s`` and ``d_upper_sum`` for bb-search, ``job_p99_s`` where a
pass has at least 1000 jobs.

End-to-end metrics (``--trace 0``): ``setup_s`` (median of eleven set-ups:
import the package, draw the jobs, write the spec files), ``wall_s`` (the
median over the passes of the job list's wall-clock time), ``job_p50_s``
and ``job_p90_s`` (over the jobs of the list, each job timed by its median
over the passes), ``peak_rss_mb`` (this process).  With ``--trace 1`` as
many traced passes follow the untraced ones in turn, so the run takes about
twice as long; the metrics are the per-layer figures of ``spans.py`` per
traced pass, and ``trace.overhead_s`` is the median traced pass minus the
median untraced pass.

Needs only the standard library and the package sources under ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

SETUP_REPS = 11
OUT_DIR = ROOT / ".bench_out"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or reference data)."""


# -- set-up --------------------------------------------------------------------


def import_program():
    """Import polyqec afresh from this checkout's sources; returns polyqec.cli."""
    src = ROOT / "src"
    if not (src / "polyqec" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {src}")
    for name in [m for m in sys.modules if m == "polyqec" or m.startswith("polyqec.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    import polyqec.cli

    if Path(polyqec.cli.__file__).resolve().parent != (src / "polyqec").resolve():
        raise BenchError(f"polyqec imported from {polyqec.cli.__file__}, not {src}")
    return polyqec.cli


def load_reference(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing reference answers {path}")
    return json.loads(path.read_text(encoding="utf-8"))["jobs"]


def spec_key(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def write_specs(jobs: list[dict], workdir: Path) -> None:
    specs = workdir / "specs"
    specs.mkdir(exist_ok=True)
    for job in jobs:
        if job["spec"] is not None:
            path = specs / f"{spec_key(job['spec'])}.code"
            if not path.exists():
                path.write_text(job["spec"], encoding="utf-8")


def set_up(workload: str, seed: int):
    """Import, load the reference, draw the jobs and write their spec files."""
    cli = import_program()
    ref = load_reference(workload)
    jobs = workloads.job_list(workload, seed, ref)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT_DIR))
    write_specs(jobs, workdir)  # later ladder rungs reuse their first rung's spec
    (workdir / "cache").mkdir()
    return cli, ref, jobs, workdir


# -- running jobs ----------------------------------------------------------------


def run_job(cli, job: dict, workdir: Path) -> tuple[object, float, dict | None, str]:
    """(exit status, seconds, parsed result block or None, stderr) of one job."""
    argv = [
        str(workdir / "specs" / f"{spec_key(job['spec'])}.code") if a == "{spec}" else a
        for a in job["argv"]
    ] + ["--json", "--no-cache"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    doc = json.loads(out.getvalue()) if code == 0 else None
    if doc is not None and doc["timing"].get("cached"):
        code = "served from the cache"
        doc = None
    return code, seconds, (doc or {}).get("result"), err.getvalue()


def run_pass(cli, jobs: list[dict], workdir: Path, recorder=None) -> tuple[float, list]:
    """Run one pass; a ladder's next rung runs right after a rung short of d."""
    records = []
    queue = deque(jobs)
    t0 = time.perf_counter()
    while queue:
        job = queue.popleft()
        if recorder is not None:
            recorder.begin_job(job["id"])
        code, seconds, result, err = run_job(cli, job, workdir)
        records.append((job, code, seconds, result, err))
        if (
            "ladder" in job
            and result is not None
            and result["d_upper"] > job["published"]
            and job["rung"] + 1 < workloads.LADDER_MAX_RUNGS
        ):
            queue.appendleft(workloads.rung_job(*job["ladder"], job["rung"] + 1))
    return time.perf_counter() - t0, records


# -- checking ----------------------------------------------------------------------


def summarize(wall: float, records: list, ref: dict, memo: dict) -> dict:
    """Check one pass and keep only what the figures need.

    ``memo`` caches the problems of each distinct (job, answer) across passes.
    """
    out = {"ids": [], "latencies": [], "attempted": 0, "failed": 0, "problems": [], "rungs": 0,
           "reached_d": [], "d_upper_sum": 0, "wall": wall}
    reached: dict[tuple, bool] = {}
    for job, code, seconds, result, err in records:
        out["attempted"] += 1
        out["ids"].append(job["id"])
        out["latencies"].append(seconds)
        key = (job["id"], str(code), json.dumps(result, sort_keys=True))
        if key not in memo:
            memo[key] = job_problems(job, code, result, err, ref.get(job["id"]))
        if memo[key]:
            out["failed"] += 1
            out["problems"] += [f"{job['id']}: {p}" for p in memo[key]]
        if "ladder" in job:
            out["rungs"] += 1
            hit = result is not None and result["d_upper"] <= job["published"]
            if hit and not reached.get(job["ladder"]):
                out["reached_d"].append(job["id"])  # the first rung to reach d
            reached[job["ladder"]] = reached.get(job["ladder"], False) or hit
        if "budget" in job and result is not None:
            out["d_upper_sum"] += result["d_upper"]
    for ladder, hit in reached.items():
        if not hit:
            out["failed"] += 1
            out["problems"].append(f"ladder {ladder} never reached the published distance")
    return out


def job_problems(job, code, result, err, ref) -> list[str]:
    if not isinstance(code, int):
        return [str(code)]
    problems = checks.compare(job, code, result, ref)
    if problems and err.strip():
        problems[0] += f" ({err.strip().splitlines()[-1]})"
    if result is None:
        return problems
    command = job["argv"][0]
    if command == "distance":
        problems += checks.witness_problems(job["spec"], result)
        if "ladder" in job and result["d_upper"] < job["published"]:
            problems.append(f"d_upper {result['d_upper']} is below the proven d")
    elif command == "lift":
        problems += checks.lift_problems(job["spec"], result)
    elif command == "params" and job.get("code") in workloads.PUBLISHED:
        _pair, _l, _m, n, k, _d, _proven = workloads.PUBLISHED[job["code"]]
        if (result["n"], result["k"]) != (n, k):
            problems.append(f"[[{result['n']},{result['k']}]] is not the published [[{n},{k}]]")
    return problems


# -- figures -----------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def job_times(passes: list[dict]) -> dict[str, float]:
    """Each job's median time over the passes."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for jid, seconds in zip(p["ids"], p["latencies"]):
            times.setdefault(jid, []).append(seconds)
    return {jid: statistics.median(ts) for jid, ts in times.items()}


def median_wall(passes: list[dict]) -> float:
    """Median wall-clock time of the job list over the passes."""
    return statistics.median(p["wall"] for p in passes)


def pass_count(workload: str, seconds: float) -> int:
    """Passes of one run, from --seconds and the workload's nominal pass time.

    The count never depends on the speed of the code measured, so a slower
    or faster program gets the same number of samples.
    """
    return max(1, round(seconds / workloads.PASS_SECONDS[workload]))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
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
    return None


def run(args) -> dict:
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        cli, ref, jobs, workdir = set_up(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
        if len(setup_times) < SETUP_REPS:
            shutil.rmtree(workdir)
    cache_dir = workdir / "cache"
    os.environ["POLYQEC_CACHE_DIR"] = str(cache_dir)
    recorder = SpanRecorder() if args.trace else None
    count = pass_count(args.workload, args.seconds)
    schedule = [False, True] * count if args.trace else [False] * count
    passes: dict[bool, list[dict]] = {False: [], True: []}  # keyed by traced
    memo: dict[tuple, list[str]] = {}
    try:
        for traced in schedule:
            if traced:
                recorder.install()
            try:
                wall, records = run_pass(cli, jobs, workdir, recorder if traced else None)
            finally:
                if traced:
                    recorder.uninstall()
            passes[traced].append(summarize(wall, records, ref, memo))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cache_files = sorted(p.name for p in cache_dir.iterdir())
        if recorder is not None:
            recorder.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = passes[False] + passes[True]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    problems = [line for p in every for line in p["problems"]]
    if cache_files:
        failed += 1
        problems.append(f"the cache directory was written: {cache_files[:3]}")
    untraced = passes[False]
    per_job = job_times(untraced)
    latencies = [per_job[jid] for jid in untraced[0]["ids"]]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "jobs_per_pass": len(jobs),
        "passes": {"untraced": len(untraced), "traced": len(passes[True])},
        "jobs_run": attempted,
        "latency_samples": len(latencies),
        "failed_frac": failed / attempted,
        "cache": {"no_cache_flag": True, "cache_dir_empty": not cache_files},
        "problems": problems[:20],
        "pass_walls_s": [p["wall"] for p in untraced],
    }
    if args.workload == "bb-search":
        time_to_d = sum(per_job[jid] for jid in untraced[0]["reached_d"])
        meta["time_to_d_s"] = {"value": time_to_d, "unit": "s"}
        meta["d_upper_sum"] = {"value": untraced[0]["d_upper_sum"], "unit": "count"}
    if args.trace:
        traced_passes = passes[True]
        overhead = median_wall(traced_passes) - median_wall(untraced)
        rungs = sum(p["rungs"] for p in traced_passes)
        metrics = recorder.metrics(len(traced_passes), rungs, overhead)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": median_wall(untraced), "unit": "s"},
            "job_p50_s": {"value": percentile(latencies, 50), "unit": "s"},
            "job_p90_s": {"value": percentile(latencies, 90), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        if len(latencies) >= 1000:
            meta["job_p99_s"] = {"value": percentile(latencies, 99), "unit": "s"}
    print(json.dumps({"metadata": meta}, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
