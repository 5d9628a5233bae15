"""Command-line entry point.

Runs the analysis pipeline pieces on code files: symbolic checks, family
classification, parent lifting and compactification, finite instantiation,
code parameters, distance and energy-barrier searches, locality-bound
summaries, matrix export, and re-derivation of the bundled family-tree
table.

Exit status: 0 on success, 1 on domain errors (bad input data, infeasible
requests), 2 on command-line usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import sys
import time
from pathlib import Path
from typing import Any

from . import barrier as barrier_mod
from . import codes, distance, specfile
from .fixtures import FAMILY_TABLE_ROWS, data_dir, fixture_names, load_fixture
from .instantiate import (
    _check_matrix,
    _group,
    instantiate as build_instance,
    support_bits,
    tanner_component_count,
    write_coordinate_text,
    write_matrix_market,
)
from .poly import LaurentPoly
from .report import ReportCache, canonical_json, make_document, render_document

__all__ = ["main", "build_parser"]


# -- spec loading ----------------------------------------------------------


def _apply_boundary_override(
    spec: specfile.CodeSpec, equations: list[str] | None
) -> specfile.CodeSpec:
    if not equations:
        return spec
    vectors = tuple(
        specfile.parse_boundary_equation(eq, spec.context, "--boundary", i)
        for i, eq in enumerate(equations, start=1)
    )
    return dataclasses.replace(spec, boundary=vectors)


def _load_spec(args) -> tuple[specfile.CodeSpec, str]:
    """The code named on the command line (a path or the name of a bundled
    code) with any ``--boundary`` override applied, and the text of its file."""
    ref = args.spec
    path = Path(ref)
    bare_name = "/" not in ref and "\\" not in ref and not ref.endswith(".code")
    if not path.is_file() and bare_name:
        path = data_dir() / f"{ref}.code"
    if not path.is_file():
        known = ", ".join(fixture_names())
        raise FileNotFoundError(f"no such file or bundled code: {ref!r} (bundled: {known})")
    text = path.read_text(encoding="utf-8")
    spec = specfile.parse_spec_text(text, source=path.name)
    return _apply_boundary_override(spec, args.boundary), text


def _spec_block(spec: specfile.CodeSpec, text: str) -> dict[str, Any]:
    return {
        "name": spec.name,
        "source": spec.source,
        "variables": list(spec.context.names),
        "f": str(spec.f),
        "g": None if spec.g is None else str(spec.g),
        "boundary": [list(v) for v in spec.boundary],
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def _on_boundary(spec: specfile.CodeSpec):
    """The classical parity matrix, or the two-block instance, on the spec's
    finite translation group, and that group."""
    pres = spec.presentation()
    if pres is None:
        raise codes.CodeError(
            "this command needs a finite translation group; add a [boundary] "
            "section or pass --boundary"
        )
    if spec.is_classical:
        # the steps of classical_parity_matrix, keeping the group it builds
        poly = spec.classical_generator()
        group = _group(spec.context, (poly,), pres)
        return _check_matrix(group, (poly,)), group
    built = build_instance(spec.two_block(), pres)
    return built, built.group


def _compare_lift(spec: specfile.CodeSpec, missing: str):
    """Compactify the file's [lift] parent and compare it with the declared
    pair: (parent, computed child, declared child, match, cancellation).
    ``missing`` is the error when the file has no [lift] data."""
    lift = spec.lift
    if lift is None:
        raise codes.CodeError(missing)
    child = codes.compactify(lift.parent, lift.substitution, lift.twist_vectors)
    declared = spec.two_block()
    matches = child.normalized() == declared.normalized()
    cancellation = (
        lift.parent.f.weight != child.f.weight or lift.parent.g.weight != child.g.weight
    )
    return lift.parent, child, declared, matches, cancellation


# -- result builders -------------------------------------------------------
# Each takes (spec, args); reproduce-appendix reads no code file: spec None.


def _witness_json(mask: int | None, sector: str | None = None) -> dict[str, Any] | None:
    if mask is None:
        return None
    out: dict[str, Any] = {"weight": mask.bit_count(), "support": support_bits(mask)}
    if sector is not None:
        out["sector"] = sector
    return out


def _barrier_result_json(res: barrier_mod.BarrierResult) -> dict[str, Any]:
    return {
        "sector": res.sector,
        "barrier": res.barrier,
        "target": _witness_json(res.target),
        "explored": res.explored,
        "path": None if res.path is None else list(res.path),
    }


def _result_check(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    if spec.is_classical:
        # f alone has the monomial vectors of the pair (f, 1)
        poly = spec.classical_generator()
        code = codes.TwoBlockCode(spec.context, poly, LaurentPoly.one(spec.context))
        commutes = family = None
        weight = poly.weight
    else:
        code = spec.two_block()
        # HX HZ^T is f g + g f = 2 f g, zero in characteristic 2; every finite
        # instance still checks its matrices (``_verify_commutation``)
        commutes = True
        weight = code.check_weight
        family = str(codes.family_tree(code))
    free, torsion, index = codes.decomposition_profile(code)
    indec = index == 1
    pres = spec.presentation()
    return {
        "kind": "classical" if spec.is_classical else "two-block",
        "css_commutes": commutes,
        "check_weight": weight,
        "indecomposable": indec,
        "profile": {"free_rank": free, "torsion": list(torsion), "index": index},
        "family": family,
        "indecomposable_on_boundary": (
            None if pres is None else codes.is_indecomposable_finite(code, pres)
        ),
        "verdict": "indecomposable" if indec else "decomposable",
    }


def _result_classify(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    code = spec.two_block()
    tag = codes.family_tree(code)
    return {
        "family": str(tag),
        "parities": list(tag.parities),
        "f_weight": code.f.weight,
        "g_weight": code.g.weight,
    }


def _result_lift(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    lift = codes.lift_to_parent(spec.two_block())
    return {
        "labels": list(lift.labels),
        "substitution": lift.substitution_text(),
        "witnesses": lift.witness_text(),
        "twists": [
            {
                "label": t.label,
                "vector": list(t.vector),
                "relation": t.render(lift.witnesses),
            }
            for t in lift.twists
        ],
        "twist_basis": [list(v) for v in lift.twist_basis],
        "parent": {
            "f": str(lift.parent.f),
            "g": str(lift.parent.g),
            "f_vars": list(lift.parent.f_vars),
            "g_vars": list(lift.parent.g_vars),
        },
    }


def _result_compactify(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    parent, child, declared, matches, cancellation = _compare_lift(
        spec, "the code file has no [lift] section to apply"
    )
    return {
        "matches": matches,
        "declared_child": {"f": str(declared.f), "g": str(declared.g)},
        "computed_child": {"f": str(child.f), "g": str(child.g)},
        "parent": {"f": str(parent.f), "g": str(parent.g)},
        "twist_count": len(spec.lift.twist_vectors),
        "cancellation": cancellation,
    }


def _result_instantiate(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    built, _ = _on_boundary(spec)
    if spec.is_classical:
        rank = built.rank()
        return {
            "kind": "classical",
            "n": built.ncols,
            "group_order": built.ncols,
            "shape": [built.nrows, built.ncols],
            "rank": rank,
            "kernel_dimension": built.ncols - rank,
        }
    return {
        "kind": "two-block",
        "n": built.n,
        "group_order": built.group.order,
        "hx_shape": list(built.hx.shape),
        "hz_shape": list(built.hz.shape),
        "rank_hx": built.hx.rank(),
        "rank_hz": built.hx.rank(),  # equal by ψ, see ``CodeInstance.k``
        "k": built.k(),
        "tanner_components": tanner_component_count(built),
    }


# the keys of `instantiate` that `params` reports, in its order
_PARAMS_KEYS = {
    "classical": ("kind", "n", "rank", "kernel_dimension"),
    "two-block": (
        "kind", "n", "k", "rank_hx", "rank_hz", "group_order", "tanner_components"
    ),
}


def _result_params(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    full = _result_instantiate(spec, args)
    return {key: full[key] for key in _PARAMS_KEYS[full["kind"]]}


def _result_distance(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    built, group = _on_boundary(spec)
    method = "classical" if spec.is_classical else args.method
    if method == "auto":
        method = "exact" if built.n <= args.exact_cap else "random"
    if method == "classical":
        res = distance.exact_classical_distance(built, group)
    elif method == "exact":
        res = distance.exact_distance(built, cap_n=args.exact_cap)
    else:
        res = distance.random_upper_bound(
            built, args.trials, args.seed, workers=args.threads
        )
    out = {
        "kind": "classical" if spec.is_classical else "two-block",
        "d_upper": res.d_upper,
        "d_lower": res.d_lower,
        "method": res.method,
        "trials": res.trials,
        "workers": res.workers,
        "search_seed": res.seed,
        "witness": _witness_json(res.witness, res.witness_sector),
        "combinations": res.combinations,
    }
    if spec.is_classical:
        # the text view lists keys in order: classical documents keep theirs
        del out["workers"], out["search_seed"]
        out["witness"] = out.pop("witness")
    elif res.combinations is None:
        del out["combinations"]
    return out


def _result_barrier(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    built, _ = _on_boundary(spec)
    if spec.is_classical:
        res = barrier_mod.classical_code_barrier(
            built, cap_n=args.cap, want_path=args.emit_path
        )
        return {
            "kind": "classical",
            "barrier": res.barrier,
            "cap": args.cap,
            "classical": _barrier_result_json(res),
        }
    res = barrier_mod.code_barrier(built, cap_n=args.cap, want_path=args.emit_path)
    results = [] if args.sector == "Z" else [res]
    if args.sector != "X":
        results.append(barrier_mod.psi_image(built, res))
    return {
        "kind": "two-block",
        "barrier": res.barrier,
        "cap": args.cap,
        "sectors": {r.sector: _barrier_result_json(r) for r in results},
    }


def _result_bounds(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    code = spec.two_block()
    if args.n is not None:
        n_eval = args.n
    else:
        pres = spec.presentation()
        if pres is None:
            raise codes.CodeError(
                "bounds need a block length; add a [boundary] section or pass --n"
            )
        # degrees of freedom across both sectors: columns of HX plus HZ
        n_eval = 4 * _group(code.context, (code.f, code.g), pres).order
    rep = codes.bound_report(code, n_eval)
    return {**dataclasses.asdict(rep), "lines": list(rep.lines)}


def _result_reproduce_appendix(spec: None, args) -> dict[str, Any]:
    rows = []
    all_pass = True
    for name in FAMILY_TABLE_ROWS:
        row_spec = load_fixture(name)
        parent, _, declared, ok, cancellation = _compare_lift(
            row_spec, f"bundled code {name!r} is missing its [lift] data"
        )
        all_pass &= ok
        rows.append(
            {
                "name": name,
                "status": "PASS" if ok else "FAIL",
                "cancellation": cancellation,
                "parent_weights": [parent.f.weight, parent.g.weight],
                "child_weights": [declared.f.weight, declared.g.weight],
                "twist_count": len(row_spec.lift.twist_vectors),
            }
        )
    return {"rows": rows, "all_pass": all_pass}


def _render_appendix_table(result: dict[str, Any]) -> str:
    lines = ["family-tree table reproduction", "=" * 31]
    width = max(len(r["name"]) for r in result["rows"])
    for row in result["rows"]:
        note = "  [GF(2) cancellation]" if row["cancellation"] else ""
        pw = "({},{})".format(*row["parent_weights"])
        cw = "({},{})".format(*row["child_weights"])
        lines.append(
            f"{row['status']:4s} {row['name'].ljust(width)}  "
            f"weights {pw} -> {cw}  twists={row['twist_count']}{note}"
        )
    lines.append("ALL ROWS PASS" if result["all_pass"] else "SOME ROWS FAIL")
    return "\n".join(lines) + "\n"


# -- command plumbing ------------------------------------------------------


# argparse dests every command shares; every other option enters the cache key
_SHARED_DESTS = frozenset(
    ("command", "func", "build", "json", "no_cache", "cache_dir", "spec", "boundary")
)


def _emit(args, doc: dict[str, Any]) -> None:
    if args.json:
        sys.stdout.write(canonical_json(doc))
    elif doc["command"] == "reproduce-appendix":
        sys.stdout.write(_render_appendix_table(doc["result"]))
    else:
        sys.stdout.write(render_document(doc))


def _document(
    args,
    spec_text: str | None,
    spec_info: dict[str, Any] | None,
    params: dict[str, Any],
    build,
) -> dict[str, Any]:
    """The command's document: from the cache if stored there, else built,
    timed and stored.  With ``--no-cache`` the cache is not touched at all."""
    command = args.command
    cache = None if args.no_cache else ReportCache(args.cache_dir)
    if cache is not None:
        # a directory that cannot hold the document fails before the work
        cache.directory.mkdir(parents=True, exist_ok=True)
        key = cache.key(command, spec_text, params)
        doc = cache.load(key)
        if doc is not None:
            return doc
    t0 = time.perf_counter()
    result = build()
    seconds = time.perf_counter() - t0
    doc = make_document(
        command, spec_info, result, seed=params.get("seed"), seconds=seconds
    )
    if cache is not None:
        cache.store(key, doc)
    return doc


def _run_command(args) -> int:
    """Shared flow of every command with a result builder (``args.build``):
    load the spec, apply ``--boundary``, get the document, print it."""
    params = {k: v for k, v in vars(args).items() if k not in _SHARED_DESTS}
    spec = text = info = None
    # reproduce-appendix names no code file; its bundled table files are in
    # the cache key's source digest
    if hasattr(args, "spec"):
        spec, text = _load_spec(args)
        info = _spec_block(spec, text)
        params["boundary_override"] = [list(v) for v in spec.boundary]
    doc = _document(args, text, info, params, lambda: args.build(spec, args))
    _emit(args, doc)
    # reproduce-appendix exits 1 when a table row fails
    return 0 if doc["result"].get("all_pass", True) else 1


def _export_matrix(args) -> int:
    spec, text = _load_spec(args)
    t0 = time.perf_counter()
    built, _ = _on_boundary(spec)
    which = args.which
    if which == "auto":
        which = "classical" if spec.is_classical else "hx"
    # a matrix of the other kind fails with the accessor's one-line error
    (spec.classical_generator if which == "classical" else spec.two_block)()
    mat = built if which == "classical" else getattr(built, which)
    writer = write_coordinate_text if args.format == "coordinate" else write_matrix_market
    if args.out is None:
        writer(mat, sys.stdout)
        return 0
    with open(args.out, "w", encoding="utf-8") as fh:
        writer(mat, fh)
    seconds = time.perf_counter() - t0
    nnz = sum(r.bit_count() for r in mat.rows)
    result = {
        "which": which,
        "format": args.format,
        "shape": list(mat.shape),
        "nonzeros": nnz,
        "path": str(args.out),
    }
    doc = make_document("export-matrix", _spec_block(spec, text), result, seconds=seconds)
    _emit(args, doc)
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the command line; ``main`` reuses one per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON document")
    common.add_argument(
        "--no-cache", action="store_true", help="skip reading and writing the disk cache"
    )
    common.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $POLYQEC_CACHE_DIR or ~/.cache/polyqec)",
    )

    spec_arg = argparse.ArgumentParser(add_help=False)
    spec_arg.add_argument("spec", help="path to a .code file, or a bundled code name")
    spec_arg.add_argument(
        "--boundary",
        action="append",
        metavar="EQUATION",
        help="override the [boundary] section (repeatable), e.g. 'x^4 = 1'",
    )

    parser = argparse.ArgumentParser(
        prog="polyqec",
        description="Translation-invariant CSS codes from Laurent polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, build, *, func=_run_command, with_spec: bool = True):
        parents = [common, spec_arg] if with_spec else [common]
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(func=func, build=build)
        return p

    add("check", "symbolic validity, commutation, and indecomposability", _result_check)
    add("classify", "family-tree tag (parity pair of generator weights)", _result_classify)
    add("lift", "lift to the hypergraph-product parent", _result_lift)
    add("compactify", "apply the file's [lift] data and compare", _result_compactify)
    add("instantiate", "build parity-check matrices on the boundary", _result_instantiate)
    add("params", "code parameters n, k on the boundary", _result_params)

    p = add("distance", "exact or randomized distance search", _result_distance)
    p.add_argument(
        "--method",
        choices=("auto", "exact", "random"),
        default="auto",
        help="auto: exact when n fits under --exact-cap, randomized otherwise",
    )
    p.add_argument(
        "--exact-cap",
        type=int,
        default=distance.EXACT_CAP_DEFAULT,
        help="largest n for the exact Brouwer–Zimmermann search",
    )
    p.add_argument(
        "--trials", type=int, default=10000, help="randomized-search trial budget"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized search")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker streams for the randomized search, run in parallel processes",
    )

    p = add("barrier", "exact energy barrier under the state cap", _result_barrier)
    p.add_argument(
        "--cap",
        type=int,
        default=barrier_mod.BARRIER_CAP_DEFAULT,
        help="largest bit count for the exact search",
    )
    p.add_argument(
        "--sector",
        choices=("X", "Z", "both"),
        default="both",
        help="restrict to one CSS sector",
    )
    p.add_argument(
        "--emit-path", action="store_true", help="include an optimal flip sequence"
    )

    p = add("bounds", "locality-driven distance-bound summary", _result_bounds)
    p.add_argument(
        "--n",
        type=int,
        default=None,
        help="evaluate at this block length instead of the boundary's",
    )

    add(
        "reproduce-appendix",
        "re-derive every bundled family-tree table row",
        _result_reproduce_appendix,
        with_spec=False,
    )

    p = add("export-matrix", "write a parity-check matrix", None, func=_export_matrix)
    p.add_argument(
        "--which",
        choices=("auto", "hx", "hz", "classical"),
        default="auto",
        help="matrix to export",
    )
    p.add_argument(
        "--format",
        choices=("coordinate", "matrix-market"),
        default="coordinate",
        help="output format",
    )
    p.add_argument("--out", default=None, help="output file (default: stdout)")

    return parser


_DOMAIN_ERRORS = (ValueError, OSError)


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # parse_args leaves no state on the parser (``--boundary`` appends to a
    # fresh list each call), so one instance serves every call in a process
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
