"""Record the reference answers of every catalogue job.

Usage, from the repository root::

    python3 bench/make_reference.py [workload ...]

Runs each workload's catalogue as one pass of ``run.run_pass``, the loop
the benchmark times, and writes ``bench/reference/<workload>.json``: the
exit status and answer fields of every job, and for exact-small the facts
that select its light jobs.  For bb-search the pass runs every ladder of
the panel rung by rung until the published distance.  Rerun only when the
answers are meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


# catalogues too large to spell out keep a digest of each job's answer fields
DIGESTED = ("symbolic-cli",)


def record(job: dict, code, result: dict | None) -> dict:
    if not isinstance(code, int):
        raise SystemExit(f"{job['id']}: {code}")
    entry = {"exit": code, "answer": None}
    if result is not None:
        entry["answer"] = checks.answer(job["argv"][0], result)
        if job["argv"][0] == "barrier":
            blocks = list((result.get("sectors") or {}).values())
            blocks += [result["classical"]] if result.get("classical") else []
            entry["explored"] = sum(b["explored"] for b in blocks)
    return entry


def light_facts(job: dict, entry: dict) -> dict:
    """Whether an exact-small catalogue job is cheap enough to be a light job."""
    if entry["exit"] != 0:
        return {"light": False}
    if job["argv"][0] == "barrier":
        return {"light": entry["explored"] <= 20000}
    specfile = sys.modules["polyqec.specfile"]
    instantiate = sys.modules["polyqec.instantiate"]
    spec = specfile.parse_spec_text(job["spec"])
    inst = instantiate.instantiate(spec.two_block(), spec.presentation())
    dims = [inst.n - inst.hx.rank(), inst.n - inst.hz.rank()]
    return {"light": max(dims) <= workloads.LIGHT_KERNEL_CAP, "kernel_dims": dims}


def make(workload: str) -> None:
    cli = run.import_program()
    jobs = workloads.catalogue(workload)
    if workload == "bb-search":
        jobs += workloads.ladder_starts(random.Random(0))
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT_DIR))
    run.write_specs(jobs, workdir)
    (workdir / "cache").mkdir()
    os.environ["POLYQEC_CACHE_DIR"] = str(workdir / "cache")
    try:
        wall, records = run.run_pass(cli, jobs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out: dict[str, dict] = {}
    ladders, reached = set(), set()
    for job, code, _seconds, result, _err in records:
        entry = record(job, code, result)
        if workload == "exact-small" and job["group"] == "light":
            entry["facts"] = light_facts(job, entry)
        if workload in DIGESTED and entry["answer"] is not None:
            entry["sha"] = checks.digest(entry.pop("answer"))
        out[job["id"]] = entry
        if "ladder" in job:
            ladders.add(job["ladder"])
            if entry["answer"]["d_upper"] <= job["published"]:
                reached.add(job["ladder"])
    if ladders - reached:
        raise SystemExit(f"ladders never reached d: {sorted(ladders - reached)}")
    doc = {
        "about": "answer fields of every catalogue job, recorded by make_reference.py",
        "git_commit": run.git_commit(),
        "python": platform.python_version(),
        "jobs": out,
    }
    path = run.HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key in ("about", "git_commit", "python"):
            fh.write(f"{json.dumps(key)}: {json.dumps(doc[key])},\n")
        fh.write('"jobs": {\n')
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in out.items()]
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")
    print(f"{workload}: {len(out)} jobs in {wall:.1f}s -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        make(name)
