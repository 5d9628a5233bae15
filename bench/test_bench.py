"""Smoke test of the benchmark itself, on a few cheap jobs per workload.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py

It checks that an untraced and a traced run emit every metric named in
BENCHMARK.json with its unit, that the answers pass the gate, that a
corrupted reference answer shows up in ``failed``, and that the gate flags
a stabilizer passed off as a distance witness and a changed exact distance
under a new method name.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_JOBS = 6


@pytest.fixture
def cheap_jobs(monkeypatch):
    """Keep the cheapest few jobs of each seeded list."""
    full = workloads.job_list

    def job_list(workload, seed, ref):
        jobs = full(workload, seed, ref)
        if workload == "bb-search":
            keep = [j for j in jobs if j.get("ladder", ("",))[0] == "bb72"]
            keep += [j for j in jobs if j["id"] == "search/params/bb72"]
            keep += [j for j in jobs if j.get("code") == "bb756" and "budget" in j]
            return keep
        if workload == "bb-params":
            return [j for j in jobs if j["stratum"] == 72][:SMOKE_JOBS]
        if workload == "exact-small":
            return [j for j in jobs if "light" in j["id"]][:SMOKE_JOBS]
        lifts = [j for j in jobs if j["argv"][0] == "lift"][:2]
        return lifts + [j for j in jobs if j["argv"][0] != "lift"][:SMOKE_JOBS]

    monkeypatch.setattr(workloads, "job_list", job_list)


def _run(workload: str, trace: int) -> dict:
    args = argparse.Namespace(workload=workload, seed=7, seconds=0, trace=trace)
    return run.run(args)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(cheap_jobs, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = _run(workload, trace)
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_reference_answer_is_a_failure(cheap_jobs, monkeypatch):
    load = run.load_reference

    def corrupted(workload):
        ref = copy.deepcopy(load(workload))
        for jid in ref:
            if jid.startswith("params/") and ref[jid]["exit"] == 0:
                ref[jid]["answer"]["rank_hx"] += 1
        return ref

    monkeypatch.setattr(run, "load_reference", corrupted)
    out = _run("bb-params", 0)
    assert not out["correct"]
    assert out["failed"] == out["attempted"]


def test_stabilizer_witness_is_flagged():
    spec = workloads.rung_job("bb72", 1, 0)["spec"]
    xs, _zs, _n = checks.check_supports(spec)
    for support in (xs[0], xs[0] ^ xs[1]):
        result = {"d_upper": len(support),
                  "witness": {"weight": len(support), "support": sorted(support), "sector": "X"}}
        problems = checks.witness_problems(spec, result)
        assert problems == ["X witness is a product of X checks, not a logical"]


def test_exact_distance_is_compared_under_a_new_method_name():
    ref = run.load_reference("exact-small")
    job = next(j for j in workloads.catalogue("exact-small")
               if j["argv"][0] == "distance" and ref[j["id"]]["exit"] == 0)
    want = ref[job["id"]]["answer"]
    renamed = dict(want, method="another-exact-method")
    assert checks.compare(job, 0, renamed, ref[job["id"]]) == []
    wrong = dict(renamed, d_upper=want["d_upper"] + 1)
    assert checks.compare(job, 0, wrong, ref[job["id"]]) != []
