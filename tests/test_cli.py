"""End-to-end tests of the command-line interface."""

import json
import shlex
from pathlib import Path

import jsonschema
import pytest

from polyqec import cli as cli_mod
from polyqec import report
from polyqec.cli import build_parser, main
from polyqec.fixtures import data_dir, fixture_names, fixture_path
from polyqec.instantiate import instantiate
from polyqec.specfile import parse_spec_file
from polyqec.report import ReportCache, make_document, strip_timing

SCHEMA = json.loads((data_dir() / "report.schema.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("POLYQEC_CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, _ = run(capsys, *argv, "--json")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


# -- verdict commands ------------------------------------------------------


def test_check_gross(capsys):
    code, doc = run_json(capsys, "check", "gross")
    assert code == 0
    res = doc["result"]
    assert res["kind"] == "two-block"
    assert res["css_commutes"] is True
    assert res["indecomposable"] is True
    assert res["profile"] == {"free_rank": 0, "torsion": [], "index": 1}
    assert res["family"] == "(odd, odd)"
    assert doc["spec"]["name"] == "gross"


def test_check_decomposable_is_a_verdict_not_an_error(capsys):
    code, doc = run_json(capsys, "check", "decomposable_example")
    assert code == 0
    res = doc["result"]
    assert res["verdict"] == "decomposable"
    assert res["profile"]["free_rank"] == 1
    assert res["indecomposable_on_boundary"] is False


def test_check_classical(capsys):
    code, doc = run_json(capsys, "check", "newman_moore")
    assert code == 0
    assert doc["result"]["kind"] == "classical"
    assert doc["result"]["css_commutes"] is None
    assert doc["result"]["indecomposable"] is True
    assert doc["spec"]["g"] is None


def test_classify(capsys):
    code, doc = run_json(capsys, "classify", "haah")
    assert code == 0
    assert doc["result"]["parities"] == ["even", "even"]
    code, doc = run_json(capsys, "classify", "sierpinski_prism")
    assert doc["result"]["parities"] == ["even", "odd"]


def test_classify_classical_is_domain_error(capsys):
    code, out, err = run(capsys, "classify", "ising")
    assert code == 1
    assert "error:" in err


# -- lift / compactify -----------------------------------------------------


def test_lift_reports_substitution_and_twists(capsys):
    code, doc = run_json(capsys, "lift", "fsl_odd_odd")
    assert code == 0
    res = doc["result"]
    assert res["labels"] == ["a1", "a2", "b1", "b2"]
    assert res["substitution"] == {"a1": "y", "a2": "x*y", "b1": "z", "b2": "x*z"}
    assert res["twist_basis"] == [[1, -1, -1, 1]]


def test_lift_decomposable_exits_one(capsys):
    code, out, err = run(capsys, "lift", "decomposable_example")
    assert code == 1
    assert "decomposable" in err


def test_compactify_matches_declared_child(capsys):
    code, doc = run_json(capsys, "compactify", "haah")
    assert code == 0
    res = doc["result"]
    assert res["matches"] is True
    assert res["cancellation"] is True
    assert res["twist_count"] == 9


def test_compactify_without_lift_section_exits_one(capsys):
    code, out, err = run(capsys, "compactify", "toric")
    assert code == 1
    assert "[lift]" in err


# -- instantiate / params --------------------------------------------------


def test_params_gross(capsys):
    code, doc = run_json(capsys, "params", "gross")
    assert code == 0
    res = doc["result"]
    assert res["n"] == 144
    assert res["k"] == 12
    assert res["rank_hx"] == 66
    assert res["rank_hz"] == 66


# (n, k, rank_hx, rank_hz, tanner_components) of every bundled two-block code
# at its own boundary; a new bundled code needs its row here.
PINNED_PARAMS = {
    "checkerboard": (16, 8, 4, 4, 1),
    "decomposable_example": (16, 0, 8, 8, 2),
    "fibonacci_fsl": (128, 8, 60, 60, 1),
    "fsl_odd_even": (128, 0, 64, 64, 1),
    "fsl_odd_odd": (128, 0, 64, 64, 1),
    "gross": (144, 12, 66, 66, 1),
    "haah": (16, 6, 5, 5, 1),
    "hhb_a": (16, 14, 1, 1, 2),
    "honeycomb_color": (72, 4, 34, 34, 1),
    "sierpinski_prism": (128, 0, 64, 64, 1),
    "toric": (32, 2, 15, 15, 1),
}


def test_pinned_params_and_seeded_witness(capsys):
    got = {}
    for name in fixture_names():
        code, doc = run_json(capsys, "params", name)
        assert code == 0
        res = doc["result"]
        if res["kind"] == "two-block":
            keys = ("n", "k", "rank_hx", "rank_hz", "tanner_components")
            got[name] = tuple(res[key] for key in keys)
    assert got == PINNED_PARAMS
    # the exact witness is the smallest integer among the lightest logicals
    # (confirmed by the brute-force oracle in test_distance), whatever the
    # kernel basis or the visiting order
    code, doc = run_json(capsys, "distance", "checkerboard", "--method", "exact")
    assert code == 0
    assert doc["result"]["witness"] == {"sector": "X", "support": [0, 8], "weight": 2}
    # the randomized stream re-eliminates the kernel each round; its witness
    # pins the seeded candidate order
    code, doc = run_json(
        capsys, "distance", "gross", "--method", "random", "--trials", "2000", "--seed", "1"
    )
    assert code == 0
    assert doc["result"]["d_upper"] == 12
    assert doc["result"]["witness"] == {
        "sector": "X",
        "support": [5, 6, 31, 73, 80, 81, 88, 95, 97, 112, 113, 129],
        "weight": 12,
    }


def test_instantiate_classical(capsys):
    code, doc = run_json(capsys, "instantiate", "newman_moore")
    assert code == 0
    res = doc["result"]
    assert res["kind"] == "classical"
    assert res["shape"] == [9, 9]
    assert res["kernel_dimension"] == 2


def test_boundary_override(capsys):
    code, doc = run_json(
        capsys, "params", "toric", "--boundary", "x^2 = 1", "--boundary", "y^2 = 1"
    )
    assert code == 0
    assert doc["result"]["n"] == 8
    assert doc["result"]["k"] == 2
    assert doc["spec"]["boundary"] == [[2, 0], [0, 2]]


def test_missing_boundary_is_domain_error(capsys, tmp_path):
    spec = tmp_path / "nb.code"
    spec.write_text("[code]\nvariables = x\nf = 1 + x\ng = 1 + x\n", encoding="utf-8")
    code, out, err = run(capsys, "params", str(spec))
    assert code == 1
    assert "boundary" in err


# -- distance / barrier / bounds -------------------------------------------


def test_distance_exact_small_toric(capsys):
    code, doc = run_json(
        capsys,
        "distance",
        "toric",
        "--boundary",
        "x^2 = 1",
        "--boundary",
        "y^2 = 1",
        "--exact-cap",
        "20",
    )
    assert code == 0
    res = doc["result"]
    assert res["method"] == "exact-brouwer-zimmermann"
    assert res["d_upper"] == 2 and res["d_lower"] == 2
    assert res["witness"]["weight"] == 2
    assert res["combinations"] > 0


def test_distance_randomized_carries_seed_and_trials(capsys):
    code, doc = run_json(
        capsys, "distance", "toric", "--method", "random", "--trials", "400",
        "--seed", "3",
    )
    assert code == 0
    res = doc["result"]
    assert res["method"] == "random-information-set-walk"
    assert "combinations" not in res
    assert res["trials"] == 400
    assert res["search_seed"] == 3
    assert doc["seed"] == 3
    assert res["d_upper"] == 4  # 4x4 torus


def test_distance_randomized_when_both_generators_cancel(capsys, tmp_path):
    # f = x + x^3 and g = y + y^4 vanish on x^2 = y^3 = 1: every qubit is a
    # pivot of the kernel, so the search has no pivot swap to make
    spec = tmp_path / "cancel.code"
    spec.write_text(
        "[code]\nvariables = x y\nf = x + x^3\ng = y + y^4\n\n"
        "[boundary]\nx^2 = 1\ny^3 = 1\n",
        encoding="utf-8",
    )
    code, doc = run_json(
        capsys, "distance", str(spec), "--method", "random", "--trials", "500"
    )
    assert code == 0
    assert doc["result"]["d_upper"] == 1
    assert doc["result"]["method"] == "random-information-set-walk"


def test_distance_classical(capsys):
    code, doc = run_json(capsys, "distance", "newman_moore")
    assert code == 0
    assert doc["result"]["d_upper"] == 6
    assert doc["result"]["method"] == "exact-brouwer-zimmermann"


def test_exact_combinations_repeat(capsys):
    # the work counter is deterministic, for two-block and classical codes
    for argv in (
        ("distance", "toric", "--boundary", "x^3 = 1", "--boundary", "y^3 = 1"),
        ("distance", "newman_moore"),
    ):
        counts = []
        for _ in range(2):
            code, doc = run_json(capsys, *argv, "--no-cache")
            assert code == 0
            counts.append(doc["result"]["combinations"])
        assert counts[0] == counts[1] > 0


def test_barrier_toric_with_path(capsys):
    code, doc = run_json(
        capsys,
        "barrier",
        "toric",
        "--boundary",
        "x^2 = 1",
        "--boundary",
        "y^2 = 1",
        "--emit-path",
    )
    assert code == 0
    res = doc["result"]
    assert res["barrier"] == 2
    path = res["sectors"]["X"]["path"]
    assert path is not None and len(path) == res["sectors"]["X"]["target"]["weight"]


def test_barrier_single_sector(capsys):
    code, doc = run_json(
        capsys, "barrier", "toric", "--sector", "Z",
        "--boundary", "x^2 = 1", "--boundary", "y^2 = 1",
    )
    assert code == 0
    assert list(doc["result"]["sectors"]) == ["Z"]


def test_four_way_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["barrier", "toric", "--four-way", "--no-cache"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --four-way" in capsys.readouterr().err
    code, doc = run_json(
        capsys, "barrier", "toric", "--boundary", "x^2 = 1", "--boundary", "y^2 = 1"
    )
    assert code == 0
    assert set(doc["result"]) == {"kind", "barrier", "cap", "sectors"}


def test_barrier_classical_ising(capsys):
    code, doc = run_json(capsys, "barrier", "ising")
    assert code == 0
    assert doc["result"]["barrier"] == 2
    assert doc["result"]["classical"]["sector"] == "classical"


def test_barrier_cap_exceeded_is_domain_error(capsys):
    code, out, err = run(capsys, "barrier", "gross")
    assert code == 1
    assert "cap" in err


def test_bounds_gross(capsys):
    code, doc = run_json(capsys, "bounds", "gross")
    assert code == 0
    res = doc["result"]
    assert res["locality_dimension"] == 2
    assert res["n"] == 288
    assert abs(res["distance_upper_scaling"] - 288**0.5) < 1e-9


def test_bounds_explicit_n(capsys):
    code, doc = run_json(capsys, "bounds", "haah", "--n", "1000")
    assert code == 0
    assert doc["result"]["n"] == 1000


# -- reproduce-appendix ----------------------------------------------------


def test_reproduce_appendix_all_rows_pass(capsys):
    code, doc = run_json(capsys, "reproduce-appendix")
    assert code == 0
    res = doc["result"]
    assert res["all_pass"] is True
    assert len(res["rows"]) == 9
    by_name = {r["name"]: r for r in res["rows"]}
    cancel = {n for n, r in by_name.items() if r["cancellation"]}
    assert cancel == {"haah", "checkerboard", "fibonacci_fsl"}
    assert all(r["status"] == "PASS" for r in res["rows"])


def test_reproduce_appendix_table_output(capsys):
    code, out, _ = run(capsys, "reproduce-appendix")
    assert code == 0
    assert sum(1 for line in out.splitlines() if line.startswith("PASS")) == 9
    assert "ALL ROWS PASS" in out
    assert "cancellation" in out


# -- export ----------------------------------------------------------------


def test_export_matrix_to_file(capsys, tmp_path):
    out_path = tmp_path / "hx.mtx"
    code, doc = run_json(
        capsys, "export-matrix", "toric", "--format", "matrix-market",
        "--out", str(out_path),
    )
    assert code == 0
    assert doc["result"]["shape"] == [16, 32]
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("%%MatrixMarket")
    assert doc["result"]["nonzeros"] == sum(
        1 for line in text.splitlines()[2:] if line.strip()
    )


def test_export_matrix_stdout_coordinate(capsys):
    code, out, _ = run(capsys, "export-matrix", "newman_moore")
    assert code == 0
    first = out.splitlines()[0].split()
    assert first == ["9", "9"]


# -- cache and determinism -------------------------------------------------


def test_cache_round_trip(capsys, tmp_path):
    cache = str(tmp_path / "c1")
    args = ("params", "toric", "--cache-dir", cache)
    code1, doc1 = run_json(capsys, *args)
    code2, doc2 = run_json(capsys, *args)
    assert code1 == code2 == 0
    assert doc1["timing"]["cached"] is False
    assert doc2["timing"]["cached"] is True
    strip = lambda d: {k: v for k, v in d.items() if k != "timing"}
    assert strip(doc1) == strip(doc2)


def test_no_cache_writes_nothing(capsys, tmp_path):
    cache = tmp_path / "c2"
    code, _ = run_json(capsys, "params", "toric", "--cache-dir", str(cache), "--no-cache")
    assert code == 0
    assert not cache.exists() or not list(cache.iterdir())


def test_cache_key_distinguishes_parameters(capsys, tmp_path):
    cache = str(tmp_path / "c3")
    _, doc1 = run_json(
        capsys, "distance", "toric", "--method", "random", "--trials", "100",
        "--cache-dir", cache,
    )
    _, doc2 = run_json(
        capsys, "distance", "toric", "--method", "random", "--trials", "200",
        "--cache-dir", cache,
    )
    assert doc1["result"]["trials"] == 100
    assert doc2["result"]["trials"] == 200
    assert doc2["timing"]["cached"] is False


def test_cache_misses_after_source_change(capsys, tmp_path, monkeypatch):
    args = ("params", "toric", "--cache-dir", str(tmp_path / "c4"))
    run_json(capsys, *args)
    _, doc = run_json(capsys, *args)
    assert doc["timing"]["cached"] is True
    monkeypatch.setattr(report, "_source_digest", lambda: "0" * 64)
    _, doc = run_json(capsys, *args)
    assert doc["timing"]["cached"] is False


def test_cache_load_checks_command_and_spec_hash(tmp_path):
    cache = ReportCache(tmp_path)
    key = cache.key("params", "spec text", {})
    doc = make_document("params", {"sha256": "a" * 64}, {"n": 1}, seconds=1.0)
    cache.store(key, doc)
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
    assert cache.load(key, "params", "a" * 64)["result"] == {"n": 1}
    assert cache.load(key, "check", "a" * 64) is None
    assert cache.load(key, "params", "b" * 64) is None


def test_truncated_cache_file_is_a_miss(capsys, tmp_path):
    cache = tmp_path / "c5"
    args = ("params", "toric", "--cache-dir", str(cache))
    run_json(capsys, *args)
    [path] = cache.iterdir()
    assert path.suffix == ".json"
    path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
    code, doc = run_json(capsys, *args)
    assert code == 0
    assert doc["timing"]["cached"] is False
    assert [p.name for p in cache.iterdir()] == [path.name]
    assert json.loads(path.read_text(encoding="utf-8")) == doc


def test_randomized_report_deterministic(capsys):
    args = (
        "distance", "toric", "--method", "random", "--trials", "300",
        "--seed", "5", "--no-cache",
    )
    _, doc1 = run_json(capsys, *args)
    _, doc2 = run_json(capsys, *args)
    strip = lambda d: {k: v for k, v in d.items() if k != "timing"}
    assert strip(doc1) == strip(doc2)


def test_reused_parser_matches_fresh_parser(capsys):
    # main() parses with one parser per process; no call may leak into the next
    calls = [
        ["params", "toric", "--boundary", "x^2 = 1", "--boundary", "y^2 = 1"],
        ["params", "toric"],
        ["params", "toric", "--no-such-flag"],
        ["check", "gross"],
        ["distance", "toric", "--seed", "5", "--threads", "3"],
        ["distance", "toric"],
    ]
    for argv in calls:
        argv = argv + ["--json", "--no-cache"]
        if "--no-such-flag" in argv:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            capsys.readouterr()
            continue
        code, doc = run_json(capsys, *argv)
        fresh = build_parser().parse_args(argv)
        assert fresh.func(fresh) == code == 0
        assert strip_timing(json.loads(capsys.readouterr().out)) == strip_timing(doc)
    assert doc["result"]["search_seed"] == 0
    assert doc["result"]["workers"] == 1


# -- exit codes ------------------------------------------------------------


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_seed_and_threads_are_distance_options_only(capsys):
    for argv in (["check", "gross", "--seed", "3"], ["params", "toric", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--no-cache"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    code, doc = run_json(
        capsys, "distance", "toric", "--seed", "3", "--threads", "2", "--no-cache"
    )
    assert code == 0
    assert doc["seed"] == doc["result"]["search_seed"] == 3
    assert doc["result"]["workers"] == 2


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("polyqec ")
    ]
    assert argvs
    monkeypatch.chdir(tmp_path)  # export-matrix writes its --out file here
    for argv in argvs:
        assert main([*argv, "--no-cache"]) == 0, argv
        capsys.readouterr()


def test_missing_spec_exits_one(capsys):
    code, out, err = run(capsys, "check", "no_such_spec")
    assert code == 1
    assert "no such file or bundled code" in err


def test_malformed_spec_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("[code]\nvariables = x\nf = 1 ++ x\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "bad.code:3" in err


def test_bad_boundary_override_exits_one(capsys):
    code, out, err = run(capsys, "params", "toric", "--boundary", "x + y = 1")
    assert code == 1
    assert "not a single monomial" in err


def test_cache_dir_that_is_a_file_exits_one(capsys, tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run(capsys, "params", "toric", "--cache-dir", str(blocker))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(blocker) in err


def test_cache_dir_that_is_a_file_fails_before_building(capsys, tmp_path, monkeypatch):
    calls = []

    def build_instance(*args, **kwargs):
        calls.append(args)
        raise ValueError("built")

    monkeypatch.setattr(cli_mod, "build_instance", build_instance)
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("", encoding="utf-8")
    for cache_dir in (blocker, blocker / "below"):
        code, out, err = run(capsys, "params", "toric", "--cache-dir", str(cache_dir))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert calls == []


def test_cached_document_keeps_its_seconds(tmp_path):
    cache = ReportCache(tmp_path)
    key = cache.key("params", "spec text", {})
    doc = make_document("params", {"sha256": "a" * 64}, {"n": 1}, seconds=1.25)
    cache.store(key, doc)
    loaded = cache.load(key, "params", "a" * 64)
    assert loaded == {**doc, "timing": {"seconds": 1.25, "cached": True}}
    # a file written without the stored seconds is still a hit
    (tmp_path / f"{key}.json").write_text(
        json.dumps(strip_timing(doc)), encoding="utf-8"
    )
    loaded = cache.load(key, "params", "a" * 64)
    assert loaded == {**doc, "timing": {"seconds": 0.0, "cached": True}}


def test_bounds_n_is_four_times_the_group_order(capsys):
    # n is the column count of HX plus HZ, at each fixture's own boundary and
    # at a small twisted one
    twisted = {2: ["x^3 = 1", "x*y^2 = 1"], 3: ["x^2 = 1", "y^2 = 1", "x*y*z^2 = 1"]}
    checked = 0
    for name in fixture_names():
        spec = parse_spec_file(fixture_path(name))
        if spec.is_classical:
            continue
        for eqs in ([], twisted[spec.context.dim]):
            pres = cli_mod._apply_boundary_override(spec, eqs).presentation()
            inst = instantiate(spec.two_block(), pres, check=False)
            boundary = [a for eq in eqs for a in ("--boundary", eq)]
            code, doc = run_json(capsys, "bounds", name, *boundary, "--no-cache")
            assert code == 0
            assert doc["result"]["n"] == inst.hx.ncols + inst.hz.ncols
            checked += 1
    assert checked >= 20


def test_bounds_refuses_what_instantiate_refuses(capsys, tmp_path):
    zero = tmp_path / "zero.code"
    zero.write_text(
        "[code]\nvariables = x y\nf = 0\ng = 1 + x + y\n\n[boundary]\nx^3 = 1\ny^3 = 1\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "bounds", str(zero), "--no-cache")
    assert (code, out) == (1, "")
    assert err == "error: cannot instantiate a code with a zero generator\n"
    code, out, err = run(
        capsys, "bounds", "toric", "--boundary", "x^100000 = 1",
        "--boundary", "y^100000 = 1", "--no-cache",
    )
    assert (code, out) == (1, "")
    assert err == f"error: group order 10000000000 exceeds the instantiation cap {1 << 20}\n"


def test_group_order_over_cap_exits_one(capsys):
    # 10^10 group elements: refused before any translation table is built
    code, out, err = run(
        capsys, "params", "toric", "--boundary", "x^100000 = 1",
        "--boundary", "y^100000 = 1", "--no-cache",
    )
    assert code == 1
    assert out == ""
    assert err == f"error: group order 10000000000 exceeds the instantiation cap {1 << 20}\n"
