"""End-to-end tests of the command-line interface."""

import argparse
import json
import shlex
from pathlib import Path

import jsonschema
import pytest

from polyqec import cli as cli_mod
from polyqec import distance as distance_mod
from polyqec import instantiate as instantiate_mod
from polyqec import lattice, report
from polyqec.cli import build_parser, main
from polyqec.fixtures import data_dir, fixture_names, fixture_path
from polyqec.instantiate import instantiate
from polyqec.specfile import parse_spec_file
from polyqec.report import ReportCache, make_document

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


def _strip_timing(doc: dict) -> dict:
    """A document without its volatile ``timing`` block."""
    return {k: v for k, v in doc.items() if k != "timing"}


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


def test_check_takes_one_smith_form_per_lattice(capsys, monkeypatch, tmp_path):
    # the profile and the boundary saturation come from the ``codes`` helpers,
    # one Smith form each; indecomposability is read off the profile
    calls = []
    smith = lattice.smith_normal_form
    monkeypatch.setattr(
        lattice, "smith_normal_form", lambda mat, cols: calls.append(1) or smith(mat, cols)
    )
    open_spec = tmp_path / "open.code"
    open_spec.write_text("[code]\nvariables = x y\nf = 1 + x\ng = 1 + y\n", encoding="utf-8")
    twisted = ["gross", "--boundary", "x^6 = y^3", "--boundary", "y^6 = 1"]
    for argv, smith_forms in (
        (["gross"], 2), (twisted, 2), (["newman_moore"], 2), (["ising"], 2), ([str(open_spec)], 1)
    ):
        calls.clear()
        code, doc = run_json(capsys, "check", *argv, "--no-cache")
        assert (code, len(calls)) == (0, smith_forms), argv
        assert (doc["result"]["indecomposable_on_boundary"] is None) == (smith_forms == 1)


def test_k_zero_distance_and_barrier_exit_one(capsys):
    k_zero = ["gross", "--boundary", "x^2 = 1", "--boundary", "y^2 = 1", "--no-cache"]
    for command in ("distance", "barrier"):
        assert run(capsys, command, *k_zero) == (
            1, "", "error: code has no logical operators (k = 0)\n"
        ), command


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


# witnesses, twist vectors and twist basis of lift --json; past gross, each
# witness is the Hermite-reduced solution, so its exponents stay small
LIFT_PINS = [
    ("gross", {"x": "a1^3*b1", "y": "a1"},
     [[8, -1, 3, 0], [3, 0, 2, -1]], [[1, 1, 3, -3], [0, 3, 7, -8]]),
    (("x y", "1 + x^2 + y^3", "1 + x^3 + y^2"), {"x": "a1^-1*b2", "y": "a2^-1*b1^2"},
     [[-3, 0, 0, 2], [0, -4, 6, 0], [0, -2, 3, 0], [-3, 0, 0, 2]],
     [[3, 0, 0, -2], [0, 2, -3, 0]]),
    (("x y", "1 + x^-2*y^-3", "1 + y^2 + x^3*y^-1"),
     {"x": "a1^-1*b1*b2^2", "y": "a1^-3*b1^2*b2^6"}, [[-12, 8, 22], [-6, 4, 11]],
     [[6, -4, -11]]),
    (("x y", "1 + x*y + x^-2*y^2", "1 + y^3"),
     {"x": "a1^2*a2^-1*b1", "y": "a1^6*a2^-4*b1^3"}, [[-9, 6, -4], [18, -12, 8]],
     [[9, -6, 4]]),
    (("x y z", "1 + x^2*y^-2*z^-3 + x^-1*y^-3*z^2", "1 + x^3*z^-3 + x*y^3"),
     {"x": "a1^15*a2^-18*b1^-13*b2^13", "y": "a1*a2^-1*b1^-1*b2",
      "z": "a1^9*a2^-11*b1^-8*b2^8"},
     [[18, -21, -16, 15], [18, -21, -16, 15]], [[18, -21, -16, 15]]),
    (("x y z", "1 + x^-2*z^-3 + x^-3*y^2*z", "1 + x^-2*y^-1*z^-3 + x^3*y^-2*z^3"),
     {"x": "a1^3*a2^-3*b1*b2", "y": "a1*a2^-1*b1", "z": "a1^7*a2^-8*b1*b2^3"},
     [[-28, 31, -5, -11], [28, -31, 5, 11], [56, -62, 10, 22]],
     [[28, -31, 5, 11]]),
]


def _pair_spec(tmp_path: Path, variables: str, f: str, g: str) -> str:
    path = tmp_path / "pair.code"
    path.write_text(f"[meta]\nname = pair\n\n[code]\nvariables = {variables}\nf = {f}\ng = {g}\n")
    return str(path)


@pytest.mark.parametrize("spec, witnesses, twists, basis", LIFT_PINS)
def test_lift_documents_are_pinned(capsys, tmp_path, spec, witnesses, twists, basis):
    arg = spec if isinstance(spec, str) else _pair_spec(tmp_path, *spec)
    code, doc = run_json(capsys, "lift", arg)
    assert code == 0
    res = doc["result"]
    assert res["witnesses"] == witnesses
    assert [t["vector"] for t in res["twists"]] == twists
    assert res["twist_basis"] == basis


@pytest.mark.parametrize("spec", [spec for spec, *_ in LIFT_PINS[1:]])
def test_lift_witnesses_are_reduced_at_the_kernel_pivots(capsys, tmp_path, spec):
    # the substitution kernel in Hermite form, label columns last label first:
    # at each pivot label p, every witness exponent lies in [0, p)
    code, doc = run_json(capsys, "lift", _pair_spec(tmp_path, *spec))
    assert code == 0
    res = doc["result"]
    labels = res["labels"][::-1]
    kernel = lattice.hermite_basis([row[::-1] for row in res["twist_basis"]], len(labels))
    pivots = [next((labels[j], p) for j, p in enumerate(row) if p) for row in kernel]
    for text in res["witnesses"].values():
        exps = {}
        for factor in text.split("*"):
            label, _, exp = factor.partition("^")
            exps[label] = int(exp or 1)
        assert all(0 <= exps.get(label, 0) < p for label, p in pivots), (text, pivots)


def test_lift_decomposable_pair_message_is_pinned(capsys, tmp_path):
    code, out, err = run(capsys, "lift", _pair_spec(tmp_path, "x y", "1 + x^2", "1 + y^2"))
    assert (code, out) == (1, "")
    assert err == (
        "error: code is decomposable; monomials span a proper sublattice "
        "(free rank 0, torsion (2, 2), index 4)\n"
    )


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
    # the one-block candidate already has weight d = 12 and wins the tie with
    # every stream: its witness lies on the left block (columns below
    # |G| = 72) and pins the candidate order of the one-block step
    code, doc = run_json(
        capsys, "distance", "gross", "--method", "random", "--trials", "2000", "--seed", "1"
    )
    assert code == 0
    assert doc["result"]["d_upper"] == 12
    assert doc["result"]["witness"] == {
        "sector": "X",
        "support": [0, 15, 18, 24, 27, 30, 36, 51, 54, 60, 63, 66],
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
    assert res["method"] == "random-x-one-block-information-set-walk"
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
    assert doc["result"]["method"] == "random-x-one-block-information-set-walk"


def test_distance_classical(capsys):
    code, doc = run_json(capsys, "distance", "newman_moore")
    assert code == 0
    assert doc["result"]["d_upper"] == 6
    assert doc["result"]["method"] == "exact-brouwer-zimmermann"


@pytest.mark.parametrize(
    "argv",
    [
        ("ising",),
        ("newman_moore",),
        ("newman_moore", "--boundary", "x^3 = y", "--boundary", "y^3 = 1"),
    ],
)
def test_classical_distance_builds_its_group_once(capsys, monkeypatch, argv):
    calls = []
    real = lattice.quotient

    def counted(pres):
        calls.append(pres)
        return real(pres)

    for module in (lattice, instantiate_mod, cli_mod):
        if hasattr(module, "quotient"):
            monkeypatch.setattr(module, "quotient", counted)
    code, doc = run_json(capsys, "distance", *argv, "--no-cache")
    assert code == 0
    assert doc["result"]["kind"] == "classical"
    assert len(calls) == 1


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


def test_barrier_both_sectors_are_the_single_sector_documents(capsys):
    # ``both`` is the X document's block next to the Z document's, on every
    # bundled two-block code at a torus within the cap (k = 0 ones refuse
    # alike under every sector)
    answered = 0
    for name in fixture_names():
        spec = parse_spec_file(fixture_path(name))
        if spec.is_classical:
            continue
        size = "3" if spec.context.dim == 2 else "2"
        bounds = [a for v in spec.context.names for a in ("--boundary", f"{v}^{size} = 1")]
        outs = {}
        for sector in ("X", "Z", "both"):
            code, out, err = run(
                capsys, "barrier", name, *bounds, "--sector", sector, "--json", "--no-cache"
            )
            outs[sector] = (code, json.loads(out)["result"] if code == 0 else err)
        if outs["both"][0]:
            assert outs["X"] == outs["Z"] == outs["both"], name
            continue
        answered += 1
        both = outs["both"][1]
        assert list(both["sectors"]) == ["X", "Z"], name
        for sector in ("X", "Z"):
            code, single = outs[sector]
            assert code == 0 and list(single["sectors"]) == [sector], name
            assert single["sectors"][sector] == both["sectors"][sector], name
            assert single["barrier"] == both["barrier"], name
    assert answered >= 7


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
    code, out, err = run(capsys, "barrier", "ising", "--boundary", "x^30 = 1", "--no-cache")
    assert (code, out) == (1, "")
    assert err == "error: 30 bits exceed the barrier cap 20\n"


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


def test_bounds_without_block_length_exits_one(capsys, tmp_path):
    spec = tmp_path / "open.code"
    spec.write_text("[code]\nvariables = x y\nf = 1 + x\ng = 1 + y\n", encoding="utf-8")
    code, out, err = run(capsys, "bounds", str(spec), "--no-cache")
    assert (code, out) == (1, "")
    assert err == "error: bounds need a block length; add a [boundary] section or pass --n\n"


def test_bounds_past_the_float_range_exits_one(capsys):
    # the scalings are floats: n = 10^308 still has them, 10^400 has none and
    # ends in one line rather than an OverflowError traceback
    code, doc = run_json(capsys, "bounds", "gross", "--n", str(10**308), "--no-cache")
    assert code == 0 and doc["result"]["distance_upper_scaling"] == float(10**154)
    code, out, err = run(capsys, "bounds", "gross", "--n", str(10**400), "--no-cache")
    assert (code, out) == (1, "")
    assert err == "error: block length n is too large to bound (401 digits)\n"


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
    # the build and the write are timed
    assert doc["timing"]["seconds"] > 0 and doc["timing"]["cached"] is False


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
    assert _strip_timing(doc1) == _strip_timing(doc2)


def test_no_cache_writes_nothing(capsys, tmp_path):
    cache = tmp_path / "c2"
    code, _ = run_json(capsys, "params", "toric", "--cache-dir", str(cache), "--no-cache")
    assert code == 0
    assert not cache.exists() or not list(cache.iterdir())


# options every command shares: output and cache control, and --boundary, which
# enters the cache key as the relations it sets
_OUTPUT_OPTIONS = {"-h", "--json", "--no-cache", "--cache-dir", "--boundary"}


def _cached_command_options():
    """(command, option action) for every other option of a cached command,
    read from the parser."""
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, command in sub.choices.items():
        if command.get_default("build") is None:
            continue
        for action in command._actions:
            if action.option_strings and not _OUTPUT_OPTIONS & set(action.option_strings):
                yield pytest.param(name, action, id=f"{name}{action.option_strings[0]}")


def _other_value(action) -> list[str]:
    """Arguments that set ``action`` to a value other than its default."""
    if action.nargs == 0:  # a flag
        return [action.option_strings[0]]
    if action.choices:
        value = next(c for c in action.choices if c != action.default)
    else:
        value = 2 if action.default is None else action.default + 1
    return [action.option_strings[0], str(value)]


def test_cached_command_options_are_found():
    found = {(name, action.dest) for name, action in (p.values for p in _cached_command_options())}
    assert {("distance", "trials"), ("barrier", "cap"), ("bounds", "n")} <= found


@pytest.mark.parametrize("command, action", list(_cached_command_options()))
def test_cache_key_distinguishes_parameters(capsys, tmp_path, command, action):
    torus = ("--boundary", "x^2 = 1", "--boundary", "y^2 = 1")
    base = (command, "toric", *torus, "--cache-dir", str(tmp_path / "c3"))
    _, doc = run_json(capsys, *base)
    assert doc["timing"]["cached"] is False
    # --json only changes how the document is printed: a hit
    code, out, _ = run(capsys, *base)
    assert code == 0 and "(cached)" in out
    _, doc = run_json(capsys, *base, *_other_value(action))
    assert doc["timing"]["cached"] is False


def test_cache_misses_after_source_change(capsys, tmp_path, monkeypatch):
    args = ("params", "toric", "--cache-dir", str(tmp_path / "c4"))
    run_json(capsys, *args)
    _, doc = run_json(capsys, *args)
    assert doc["timing"]["cached"] is True
    monkeypatch.setattr(report, "_source_digest", lambda: "0" * 64)
    _, doc = run_json(capsys, *args)
    assert doc["timing"]["cached"] is False


def test_cache_load_needs_the_seal_of_its_key(tmp_path):
    cache = ReportCache(tmp_path)
    key = cache.key("params", "spec text", {})
    other = cache.key("check", "other text", {})
    result = {"kind": "two-block", "n": 1}
    doc = make_document("params", {"sha256": "a" * 64}, result, seconds=1.0)
    cache.store(key, doc)
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
    assert cache.load(key)["result"] == result
    path, other_path = tmp_path / f"{key}.json", tmp_path / f"{other}.json"
    sealed = json.loads(path.read_text(encoding="utf-8"))
    distance = {"d_upper": 2, "d_lower": 2, "method": "exact-brouwer-zimmermann",
                "witness": {"weight": 2, "support": [0, 1]}}
    # documents of another command or code file, with no result object, or
    # with a result the command would not write: each is a miss when its
    # sealed file is copied under another key, and when it replaces the body
    # of a file sealed for this key
    for bad in ({**doc, "command": "check"}, {**doc, "spec": {"sha256": "b" * 64}},
                _without_result(doc), {**doc, "result": [1, 2]}, {**doc, "result": None},
                {**doc, "result": {}}, {**doc, "result": {"n": 1}},
                make_document("distance", {"sha256": "a" * 64}, _without(distance, "witness")),
                make_document("distance", {"sha256": "a" * 64},
                              {**distance, "d_upper": "two", "witness": {}})):
        cache.store(other, bad)
        assert cache.load(other) is not None
        path.write_bytes(other_path.read_bytes())
        assert cache.load(key) is None
        path.write_text(json.dumps({**bad, "seal": sealed["seal"]}), encoding="utf-8")
        assert cache.load(key) is None
    # a file with no seal, a null seal, or no object at all is a miss
    for stored in (doc, {**doc, "seal": None}, [doc, sealed["seal"]]):
        path.write_text(json.dumps(stored), encoding="utf-8")
        assert cache.load(key) is None
    path.write_text(json.dumps(sealed), encoding="utf-8")
    assert cache.load(key)["result"] == result


def _without(mapping: dict, key: str) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


def _without_result(doc: dict) -> dict:
    return _without(doc, "result")


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
    assert _without(json.loads(path.read_text(encoding="utf-8")), "seal") == doc


@pytest.mark.parametrize("damage", ["edited", "copied"])
def test_damaged_cache_file_is_recomputed_and_overwritten(capsys, tmp_path, damage):
    cache = tmp_path / "c7"
    torus = ("--boundary", "x^2 = 1", "--boundary", "y^2 = 1", "--cache-dir", str(cache))
    run_json(capsys, "params", "toric", *torus)
    [params_path] = cache.iterdir()
    _, doc = run_json(capsys, "distance", "toric", *torus)
    [path] = set(cache.iterdir()) - {params_path}
    if damage == "copied":
        path.write_bytes(params_path.read_bytes())
    else:
        # the seal stays; the document it was made for does not
        stored = json.loads(path.read_text(encoding="utf-8"))
        stored["result"].update(d_upper="two", witness={})
        path.write_text(json.dumps(stored), encoding="utf-8")
    code, again = run_json(capsys, "distance", "toric", *torus)
    assert code == 0
    assert again["timing"]["cached"] is False
    assert _strip_timing(again) == _strip_timing(doc)
    assert again["result"]["d_upper"] == 2
    assert _without(json.loads(path.read_text(encoding="utf-8")), "seal") == again


@pytest.mark.parametrize("json_flag", [("--json",), ()])
@pytest.mark.parametrize("damage", [_without_result, lambda d: {**d, "result": [1, 2]}])
def test_cache_file_without_a_result_object_is_a_miss(capsys, tmp_path, damage, json_flag):
    cache = tmp_path / "c6"
    args = ("params", "toric", "--cache-dir", str(cache))
    _, doc = run_json(capsys, *args)
    [path] = cache.iterdir()
    # the stored seal stays with the damaged document
    stored = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(damage(stored)), encoding="utf-8")
    code, out, err = run(capsys, *args, *json_flag)
    assert code == 0 and err == ""
    assert "(cached)" not in out
    assert json.loads(path.read_text(encoding="utf-8"))["result"] == doc["result"]
    if json_flag:
        assert _strip_timing(json.loads(out)) == _strip_timing(doc)


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
        assert _strip_timing(json.loads(capsys.readouterr().out)) == _strip_timing(doc)
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


def test_threads_past_the_bound_exit_one(capsys, monkeypatch):
    torus = ["toric", "--boundary", "x^3 = 1", "--boundary", "y^3 = 1", "--method", "random"]
    code, doc = run_json(
        capsys, "distance", *torus, "--threads", "1024", "--trials", "8", "--no-cache"
    )
    assert code == 0 and doc["result"]["workers"] == 1024 and doc["result"]["d_upper"] == 3
    # one more is refused before the search builds a stream or starts a process
    monkeypatch.setattr(distance_mod, "logical_space", lambda inst: pytest.fail("search ran"))
    workers = distance_mod.MAX_WORKERS + 1
    code, out, err = run(capsys, "distance", *torus, "--threads", str(workers), "--no-cache")
    assert (code, out) == (1, "")
    assert err == f"error: workers must be at most 1024, got {workers}\n"


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


def test_readme_library_example_runs(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "{'a1': 'x*y', 'a2': 'x^2*y', 'a3': 'y^3', 'b1': 'x*z', 'b2': 'z^2'}",
        "['a3 = (a1^2*a2^-1)^3', 'b2 = (a1*a2^-1*b1)^2']",
        "18 2",
        "3",
        "2 2",
    ]


def test_missing_spec_exits_one(capsys):
    code, out, err = run(capsys, "check", "no_such_spec")
    assert code == 1
    assert err == (
        "error: no such file or bundled code: 'no_such_spec' (bundled: checkerboard, "
        "decomposable_example, fibonacci_fsl, fsl_odd_even, fsl_odd_odd, gross, haah, "
        "hhb_a, honeycomb_color, ising, newman_moore, sierpinski_prism, toric)\n"
    )


def test_malformed_spec_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("[code]\nvariables = x\nf = 1 ++ x\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "bad.code:3" in err


def test_refusals_end_in_one_line(capsys, tmp_path):
    huge = tmp_path / "huge.code"
    huge.write_text("[code]\nvariables = x y\nf = (1 + x + y)^4095\ng = 1 + x\n")
    zero = tmp_path / "zero.code"
    zero.write_text("[code]\nvariables = x y\nf = x + x\n\n[boundary]\nx^2 = 1\ny^2 = 1\n")
    wide = tmp_path / "wide.code"
    wide.write_text("[code]\nvariables = x y z\nf = 1 + x + y\ng = 1 + y + (1 + x + z)^63\n")
    for argv, message in [
        (
            ("lift", str(wide)),
            "lift needs one parent variable per non-constant term: 730 terms exceed the cap 128",
        ),
        (
            ("check", str(huge)),
            "huge.code:3: power 4095 of a 3-term polynomial passes the 262144-term limit "
            "at position 12",
        ),
        (("params", "toric", "--boundary", "x^2 = 1"), "quotient of x y is infinite (free rank 1)"),
        (("check", str(zero)), "classical generator must be nonzero"),
        (("params", str(zero)), "classical generator must be nonzero"),
    ]:
        assert run(capsys, *argv, "--no-cache") == (1, "", f"error: {message}\n")


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


def test_failed_store_removes_its_temporary_file(tmp_path, monkeypatch):
    cache = ReportCache(tmp_path)
    key = cache.key("params", "spec text", {})
    doc = make_document("params", {"sha256": "a" * 64}, {"kind": "two-block"}, seconds=1.0)

    def refuse(src, dst):
        assert Path(src).is_file()  # the document was written before the move
        raise OSError("disk full")

    monkeypatch.setattr(report.os, "replace", refuse)
    with pytest.raises(OSError, match="^disk full$"):
        cache.store(key, doc)
    assert list(tmp_path.iterdir()) == []


def test_cached_document_keeps_its_seconds(tmp_path):
    cache = ReportCache(tmp_path)
    key = cache.key("params", "spec text", {})
    result = {"kind": "two-block", "n": 1}
    doc = make_document("params", {"sha256": "a" * 64}, result, seconds=1.25)
    cache.store(key, doc)
    loaded = cache.load(key)
    assert loaded == {**doc, "timing": {"seconds": 1.25, "cached": True}}
    # the seconds are sealed with the rest of the document
    path = tmp_path / f"{key}.json"
    stored = json.loads(path.read_text(encoding="utf-8"))
    stored["timing"]["seconds"] = 0.5
    path.write_text(json.dumps(stored), encoding="utf-8")
    assert cache.load(key) is None


def test_cache_write_refused_exits_one(capsys, tmp_path, monkeypatch):
    # a directory the user may not write to; the suite may run as root,
    # which ignores mode bits, so the refusal is injected where the file is made
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied", kwargs.get("dir"))

    monkeypatch.setattr(report.tempfile, "mkstemp", refuse)
    code, out, err = run(capsys, "params", "toric", "--cache-dir", str(tmp_path / "c8"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Permission denied" in err


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
    assert err == f"error: group order 10000000000 exceeds the instantiation cap {1 << 14}\n"


def test_group_order_over_cap_exits_one(capsys):
    # 10^10 group elements: refused before any translation table is built
    code, out, err = run(
        capsys, "params", "toric", "--boundary", "x^100000 = 1",
        "--boundary", "y^100000 = 1", "--no-cache",
    )
    assert code == 1
    assert out == ""
    assert err == f"error: group order 10000000000 exceeds the instantiation cap {1 << 14}\n"
