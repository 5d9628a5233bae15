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
import math
import sys
import time
from pathlib import Path
from typing import Any

from . import barrier as barrier_mod
from . import codes, distance, specfile
from .fixtures import FAMILY_TABLE_ROWS, fixture_names, fixture_path
from .instantiate import (
    classical_parity_matrix,
    _code_group,
    instantiate as build_instance,
    tanner_component_count,
    write_coordinate_text,
    write_matrix_market,
)
from .lattice import lattice_saturates, quotient, quotient_shape
from .report import (
    ReportCache,
    canonical_json,
    make_document,
    render_document,
    support_bits,
)

__all__ = ["main", "build_parser"]


# -- spec loading ----------------------------------------------------------


def _apply_boundary_override(
    spec: specfile.CodeSpec, equations: list[str] | None
) -> specfile.CodeSpec:
    if not equations:
        return spec
    vectors = []
    for i, eq in enumerate(equations, start=1):
        vectors.append(
            specfile.parse_boundary_equation(
                eq, spec.context, source="--boundary", lineno=i
            )
        )
    return dataclasses.replace(spec, boundary=tuple(vectors))


def _load_spec(args) -> tuple[specfile.CodeSpec, str]:
    """The code named on the command line (a path or the name of a bundled
    code) with any ``--boundary`` override applied, and the text of its file."""
    ref = args.spec
    path = Path(ref)
    bare_name = "/" not in ref and "\\" not in ref and not ref.endswith(".code")
    if not path.is_file() and bare_name:
        try:
            path = fixture_path(ref)
        except FileNotFoundError:
            pass
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
    finite translation group."""
    pres = spec.presentation()
    if pres is None:
        raise codes.CodeError(
            "this command needs a finite translation group; add a [boundary] "
            "section or pass --boundary"
        )
    if spec.is_classical:
        return classical_parity_matrix(spec.classical_generator(), pres)
    return build_instance(spec.two_block(), pres)


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
    d = spec.context.dim
    if spec.is_classical:
        gen = spec.classical_generator()
        one = (0,) * d
        vectors = sorted(t for t in gen.normalized().poly.terms if t != one)
        commutes = family = None
        weight = gen.weight
    else:
        code = spec.two_block()
        vectors = list(codes.monomial_group_vectors(code))
        commutes = codes.css_commutes_symbolically(code)
        weight = code.normalized().check_weight
        family = str(codes.family_tree(code))
    free, torsion = quotient_shape(vectors, d)
    indec = free == 0 and not torsion
    on_boundary = None
    if spec.boundary:
        on_boundary = lattice_saturates(vectors + [list(r) for r in spec.boundary], d)
    return {
        "kind": "classical" if spec.is_classical else "two-block",
        "css_commutes": commutes,
        "check_weight": weight,
        "indecomposable": indec,
        "profile": {
            "free_rank": free,
            "torsion": list(torsion),
            "index": None if free else math.prod(torsion),
        },
        "family": family,
        "indecomposable_on_boundary": on_boundary,
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
    built = _on_boundary(spec)
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
        "group_order": built.group_order,
        "hx_shape": list(built.hx.shape),
        "hz_shape": list(built.hz.shape),
        "rank_hx": built.hx.rank(),
        "rank_hz": built.hz.rank(),
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
    built = _on_boundary(spec)
    if spec.is_classical:
        res = distance.exact_classical_distance(built, quotient(spec.presentation()))
        return {
            "kind": "classical",
            "d_upper": res.value,
            "d_lower": res.value,
            "method": "exact-brouwer-zimmermann",
            "trials": None,
            "combinations": res.combinations,
            "witness": _witness_json(res.witness),
        }
    method = args.method
    if method == "auto":
        method = "exact" if built.n <= args.exact_cap else "random"
    if method == "exact":
        res = distance.exact_distance(built, cap_n=args.exact_cap)
    else:
        res = distance.random_upper_bound(
            built, args.trials, args.seed, workers=args.threads
        )
    out = {
        "kind": "two-block",
        "d_upper": res.d_upper,
        "d_lower": res.d_lower,
        "method": res.method,
        "trials": res.trials,
        "workers": res.workers,
        "search_seed": res.seed,
        "witness": _witness_json(res.witness, res.witness_sector),
    }
    if res.combinations is not None:
        out["combinations"] = res.combinations
    return out


def _result_barrier(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    built = _on_boundary(spec)
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
    sectors = ("X", "Z") if args.sector == "both" else (args.sector,)
    results = [
        barrier_mod.sector_barrier(built, s, cap_n=args.cap, want_path=args.emit_path)
        for s in sectors
    ]
    return {
        "kind": "two-block",
        "barrier": min(res.barrier for res in results),
        "cap": args.cap,
        "sectors": {res.sector: _barrier_result_json(res) for res in results},
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
        n_eval = 4 * _code_group(code, pres).order
    rep = codes.bound_report(code, n_eval)
    return {
        "check_weight": rep.check_weight,
        "variable_count": rep.variable_count,
        "locality_dimension": rep.locality_dimension,
        "n": rep.n,
        "indecomposable": rep.indecomposable,
        "variables_within_weight_cap": rep.variables_within_weight_cap,
        "distance_upper_scaling": rep.distance_upper_scaling,
        "distance_lower_scaling": rep.distance_lower_scaling,
        "lines": list(rep.lines),
    }


def _result_reproduce_appendix(spec: None, args) -> dict[str, Any]:
    rows = []
    all_pass = True
    for name in FAMILY_TABLE_ROWS:
        row_spec = specfile.parse_spec_file(fixture_path(name))
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
    verdict = "ALL ROWS PASS" if result["all_pass"] else "SOME ROWS FAIL"
    lines.append(verdict)
    return "\n".join(lines) + "\n"


# -- command plumbing ------------------------------------------------------


# command -> (result builder, argparse dests that enter the cache key)
_COMMANDS = {
    "check": (_result_check, ()),
    "classify": (_result_classify, ()),
    "lift": (_result_lift, ()),
    "compactify": (_result_compactify, ()),
    "instantiate": (_result_instantiate, ()),
    "params": (_result_params, ()),
    "distance": (
        _result_distance, ("method", "exact_cap", "trials", "seed", "threads")
    ),
    "barrier": (_result_barrier, ("cap", "sector", "emit_path")),
    "bounds": (_result_bounds, ("n",)),
    "reproduce-appendix": (_result_reproduce_appendix, ()),
}


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
        doc = cache.load(key, command, spec_info["sha256"] if spec_info else None)
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
    """Shared flow of every command in ``_COMMANDS``: load the spec, apply
    ``--boundary``, get the document, print it."""
    build, dests = _COMMANDS[args.command]
    params = {dest: getattr(args, dest) for dest in dests}
    spec = text = info = None
    # reproduce-appendix names no code file; its bundled table files are in
    # the cache key's source digest
    if hasattr(args, "spec"):
        spec, text = _load_spec(args)
        info = _spec_block(spec, text)
        params["boundary_override"] = [list(v) for v in spec.boundary]
    doc = _document(args, text, info, params, lambda: build(spec, args))
    _emit(args, doc)
    # reproduce-appendix exits 1 when a table row fails
    return 0 if doc["result"].get("all_pass", True) else 1


def _export_matrix(args) -> int:
    spec, text = _load_spec(args)
    built = _on_boundary(spec)
    which = args.which
    if which == "auto":
        which = "classical" if spec.is_classical else "hx"
    # a matrix of the other kind fails with the accessor's one-line error
    (spec.classical_generator if which == "classical" else spec.two_block)()
    mat = built if which == "classical" else getattr(built, which)
    writer = (
        write_coordinate_text
        if args.format == "coordinate"
        else write_matrix_market
    )
    if args.out is None:
        writer(mat, sys.stdout)
        return 0
    writer(mat, args.out)
    nnz = sum(r.bit_count() for r in mat.rows)
    result = {
        "which": which,
        "format": args.format,
        "shape": list(mat.shape),
        "nonzeros": nnz,
        "path": str(args.out),
    }
    doc = make_document("export-matrix", _spec_block(spec, text), result)
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

    def add(name: str, help_text: str, *, func=_run_command, with_spec: bool = True):
        parents = [common, spec_arg] if with_spec else [common]
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(func=func)
        return p

    add("check", "symbolic validity, commutation, and indecomposability")
    add("classify", "family-tree tag (parity pair of generator weights)")
    add("lift", "lift to the hypergraph-product parent")
    add("compactify", "apply the file's [lift] data and compare")
    add("instantiate", "build parity-check matrices on the boundary")
    add("params", "code parameters n, k on the boundary")

    p = add("distance", "exact or randomized distance search")
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

    p = add("barrier", "exact energy barrier under the state cap")
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

    p = add("bounds", "locality-driven distance-bound summary")
    p.add_argument(
        "--n",
        type=int,
        default=None,
        help="evaluate at this block length instead of the boundary's",
    )

    add(
        "reproduce-appendix",
        "re-derive every bundled family-tree table row",
        with_spec=False,
    )

    p = add("export-matrix", "write a parity-check matrix", func=_export_matrix)
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


_DOMAIN_ERRORS = (
    ValueError,
    FileNotFoundError,
    FileExistsError,
    NotADirectoryError,
    IsADirectoryError,
)


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
