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
from .lattice import lattice_saturates, quotient_shape
from .report import (
    ReportCache,
    canonical_json,
    make_document,
    render_document,
    support_bits,
)

__all__ = ["main", "build_parser"]


# -- spec loading ----------------------------------------------------------


def _load_spec_text(ref: str) -> tuple[str, str]:
    """(text, source name) for a path or the name of a bundled code."""
    path = Path(ref)
    if path.is_file():
        return path.read_text(encoding="utf-8"), path.name
    if "/" not in ref and "\\" not in ref and not ref.endswith(".code"):
        try:
            bundled = fixture_path(ref)
        except FileNotFoundError:
            pass
        else:
            return bundled.read_text(encoding="utf-8"), bundled.name
    known = ", ".join(fixture_names())
    raise FileNotFoundError(f"no such file or bundled code: {ref!r} (bundled: {known})")


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


def _require_presentation(spec: specfile.CodeSpec):
    pres = spec.presentation()
    if pres is None:
        raise codes.CodeError(
            "this command needs a finite translation group; add a [boundary] "
            "section or pass --boundary"
        )
    return pres


def _classical_vectors(gen: codes.ClassicalGenerator) -> list[tuple[int, ...]]:
    norm = gen.normalized()
    one = (0,) * gen.context.dim
    return sorted(t for t in norm.poly.terms if t != one)


# -- result builders -------------------------------------------------------


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


def _result_check(spec: specfile.CodeSpec) -> dict[str, Any]:
    if spec.is_classical:
        gen = spec.classical_generator()
        vectors = _classical_vectors(gen)
        d = gen.context.dim
        free, torsion = quotient_shape(vectors, d)
        indec = free == 0 and not torsion
        index = None if free else (math.prod(torsion) if torsion else 1)
        result: dict[str, Any] = {
            "kind": "classical",
            "css_commutes": None,
            "check_weight": gen.weight,
            "indecomposable": indec,
            "profile": {"free_rank": free, "torsion": list(torsion), "index": index},
            "family": None,
            "indecomposable_on_boundary": None,
        }
        if spec.boundary:
            all_vecs = vectors + [list(r) for r in spec.boundary]
            result["indecomposable_on_boundary"] = lattice_saturates(all_vecs, d)
        result["verdict"] = "indecomposable" if indec else "decomposable"
        return result
    code = spec.two_block()
    free, torsion, index = codes.decomposition_profile(code)
    indec = free == 0 and not torsion
    result = {
        "kind": "two-block",
        "css_commutes": codes.css_commutes_symbolically(code),
        "check_weight": code.normalized().check_weight,
        "indecomposable": indec,
        "profile": {"free_rank": free, "torsion": list(torsion), "index": index},
        "family": str(codes.family_tree(code)),
        "indecomposable_on_boundary": None,
        "verdict": "indecomposable" if indec else "decomposable",
    }
    if spec.boundary:
        result["indecomposable_on_boundary"] = codes.is_indecomposable_finite(
            code, spec.presentation()
        )
    return result


def _result_classify(spec: specfile.CodeSpec) -> dict[str, Any]:
    code = spec.two_block()
    tag = codes.family_tree(code)
    return {
        "family": str(tag),
        "parities": list(tag.parities),
        "f_weight": code.f.weight,
        "g_weight": code.g.weight,
    }


def _result_lift(spec: specfile.CodeSpec) -> dict[str, Any]:
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


def _result_compactify(spec: specfile.CodeSpec) -> dict[str, Any]:
    if spec.lift is None:
        raise codes.CodeError("the code file has no [lift] section to apply")
    lift = spec.lift
    child = codes.compactify(lift.parent, lift.substitution, lift.twist_vectors)
    declared = spec.two_block()
    matches = child.normalized() == declared.normalized()
    cancellation = (
        lift.parent.f.weight != child.f.weight or lift.parent.g.weight != child.g.weight
    )
    return {
        "matches": matches,
        "declared_child": {"f": str(declared.f), "g": str(declared.g)},
        "computed_child": {"f": str(child.f), "g": str(child.g)},
        "parent": {"f": str(lift.parent.f), "g": str(lift.parent.g)},
        "twist_count": len(lift.twist_vectors),
        "cancellation": cancellation,
    }


def _result_instantiate(spec: specfile.CodeSpec) -> dict[str, Any]:
    pres = _require_presentation(spec)
    if spec.is_classical:
        mat = classical_parity_matrix(spec.classical_generator(), pres)
        rank = mat.rank()
        return {
            "kind": "classical",
            "n": mat.ncols,
            "group_order": mat.ncols,
            "shape": [mat.nrows, mat.ncols],
            "rank": rank,
            "kernel_dimension": mat.ncols - rank,
        }
    inst = build_instance(spec.two_block(), pres)
    return {
        "kind": "two-block",
        "n": inst.n,
        "group_order": inst.group_order,
        "hx_shape": list(inst.hx.shape),
        "hz_shape": list(inst.hz.shape),
        "rank_hx": inst.hx.rank(),
        "rank_hz": inst.hz.rank(),
        "k": inst.k(),
        "tanner_components": tanner_component_count(inst),
    }


def _result_params(spec: specfile.CodeSpec) -> dict[str, Any]:
    pres = _require_presentation(spec)
    if spec.is_classical:
        mat = classical_parity_matrix(spec.classical_generator(), pres)
        rank = mat.rank()
        return {
            "kind": "classical",
            "n": mat.ncols,
            "rank": rank,
            "kernel_dimension": mat.ncols - rank,
        }
    inst = build_instance(spec.two_block(), pres)
    return {
        "kind": "two-block",
        "n": inst.n,
        "k": inst.k(),
        "rank_hx": inst.hx.rank(),
        "rank_hz": inst.hz.rank(),
        "group_order": inst.group_order,
        "tanner_components": tanner_component_count(inst),
    }


def _result_distance(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    pres = _require_presentation(spec)
    if spec.is_classical:
        mat = classical_parity_matrix(spec.classical_generator(), pres)
        res = distance.exact_classical_distance(mat)
        return {
            "kind": "classical",
            "d_upper": res.value,
            "d_lower": res.value,
            "method": "exact-kernel-enumeration",
            "trials": None,
            "witness": _witness_json(res.witness),
        }
    inst = build_instance(spec.two_block(), pres)
    method = args.method
    if method == "auto":
        method = "exact" if inst.n <= args.exact_cap else "random"
    if method == "exact":
        res = distance.exact_distance(inst, cap_n=args.exact_cap)
    else:
        res = distance.random_upper_bound(
            inst, args.trials, args.seed, workers=args.threads
        )
    return {
        "kind": "two-block",
        "d_upper": res.d_upper,
        "d_lower": res.d_lower,
        "method": res.method,
        "trials": res.trials,
        "workers": res.workers,
        "search_seed": res.seed,
        "witness": _witness_json(res.witness, res.witness_sector),
    }


def _result_barrier(spec: specfile.CodeSpec, args) -> dict[str, Any]:
    pres = _require_presentation(spec)
    if spec.is_classical:
        mat = classical_parity_matrix(spec.classical_generator(), pres)
        res = barrier_mod.classical_code_barrier(
            mat, cap_n=args.cap, want_path=args.emit_path
        )
        return {
            "kind": "classical",
            "barrier": res.barrier,
            "cap": args.cap,
            "classical": _barrier_result_json(res),
        }
    inst = build_instance(spec.two_block(), pres)
    if args.sector in ("X", "Z"):
        res = barrier_mod.sector_barrier(
            inst, args.sector, cap_n=args.cap, want_path=args.emit_path
        )
        return {
            "kind": "two-block",
            "barrier": res.barrier,
            "cap": args.cap,
            "sectors": {args.sector: _barrier_result_json(res)},
            "four_way": None,
        }
    res = barrier_mod.code_barrier(
        inst, cap_n=args.cap, want_path=args.emit_path, with_four_way=args.four_way
    )
    four = None
    if res.four_way is not None:
        four = {
            "hx": res.four_way.hx,
            "hz": res.four_way.hz,
            "hx_t": res.four_way.hx_t,
            "hz_t": res.four_way.hz_t,
            "minimum": res.four_way.minimum,
        }
    return {
        "kind": "two-block",
        "barrier": res.barrier,
        "cap": args.cap,
        "sectors": {
            "X": _barrier_result_json(res.x_result),
            "Z": _barrier_result_json(res.z_result),
        },
        "four_way": four,
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


def _result_reproduce_appendix() -> dict[str, Any]:
    rows = []
    all_pass = True
    for name in FAMILY_TABLE_ROWS:
        spec = specfile.parse_spec_file(fixture_path(name))
        lift = spec.lift
        if lift is None:
            raise codes.CodeError(f"bundled code {name!r} is missing its [lift] data")
        child = codes.compactify(lift.parent, lift.substitution, lift.twist_vectors)
        declared = spec.two_block()
        ok = child.normalized() == declared.normalized()
        all_pass &= ok
        rows.append(
            {
                "name": name,
                "status": "PASS" if ok else "FAIL",
                "cancellation": lift.parent.f.weight != child.f.weight
                or lift.parent.g.weight != child.g.weight,
                "parent_weights": [lift.parent.f.weight, lift.parent.g.weight],
                "child_weights": [declared.f.weight, declared.g.weight],
                "twist_count": len(lift.twist_vectors),
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


def _emit(args, doc: dict[str, Any]) -> None:
    if args.json:
        sys.stdout.write(canonical_json(doc))
    elif doc["command"] == "reproduce-appendix":
        sys.stdout.write(_render_appendix_table(doc["result"]))
    else:
        sys.stdout.write(render_document(doc))


def _document(
    args,
    command: str,
    spec_text: str | None,
    spec_info: dict[str, Any] | None,
    params: dict[str, Any],
    build,
) -> dict[str, Any]:
    """The command's document: from the cache if stored there, else built,
    timed and stored.  With ``--no-cache`` the cache is not touched at all."""
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


def _run_spec_command(args, command: str, build, params: dict[str, Any]) -> int:
    """Shared flow: load spec, apply overrides, get the document, print."""
    text, source = _load_spec_text(args.spec)
    spec = specfile.parse_spec_text(text, source=source)
    spec = _apply_boundary_override(spec, getattr(args, "boundary", None))
    params = {**params, "boundary_override": [list(v) for v in spec.boundary]}
    doc = _document(
        args, command, text, _spec_block(spec, text), params, lambda: build(spec)
    )
    _emit(args, doc)
    return 0


def _cmd_check(args) -> int:
    return _run_spec_command(args, "check", _result_check, {})


def _cmd_classify(args) -> int:
    return _run_spec_command(args, "classify", _result_classify, {})


def _cmd_lift(args) -> int:
    return _run_spec_command(args, "lift", _result_lift, {})


def _cmd_compactify(args) -> int:
    return _run_spec_command(args, "compactify", _result_compactify, {})


def _cmd_instantiate(args) -> int:
    return _run_spec_command(args, "instantiate", _result_instantiate, {})


def _cmd_params(args) -> int:
    return _run_spec_command(args, "params", _result_params, {})


def _cmd_distance(args) -> int:
    params = {
        "method": args.method,
        "exact_cap": args.exact_cap,
        "trials": args.trials,
        "seed": args.seed,
        "workers": args.threads,
    }
    return _run_spec_command(
        args, "distance", lambda spec: _result_distance(spec, args), params
    )


def _cmd_barrier(args) -> int:
    params = {
        "cap": args.cap,
        "sector": args.sector,
        "emit_path": args.emit_path,
        "four_way": args.four_way,
    }
    return _run_spec_command(
        args, "barrier", lambda spec: _result_barrier(spec, args), params
    )


def _cmd_bounds(args) -> int:
    return _run_spec_command(
        args, "bounds", lambda spec: _result_bounds(spec, args), {"n": args.n}
    )


def _cmd_reproduce_appendix(args) -> int:
    # the bundled table files are in the cache key's source digest
    doc = _document(
        args, "reproduce-appendix", None, None, {}, _result_reproduce_appendix
    )
    _emit(args, doc)
    return 0 if doc["result"]["all_pass"] else 1


def _cmd_export_matrix(args) -> int:
    text, source = _load_spec_text(args.spec)
    spec = specfile.parse_spec_text(text, source=source)
    spec = _apply_boundary_override(spec, args.boundary)
    pres = _require_presentation(spec)
    which = args.which
    if which == "auto":
        which = "classical" if spec.is_classical else "hx"
    if which == "classical":
        mat = classical_parity_matrix(spec.classical_generator(), pres)
    else:
        inst = build_instance(spec.two_block(), pres)
        mat = inst.hx if which == "hx" else inst.hz
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
    common.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    common.add_argument(
        "--no-cache", action="store_true", help="skip reading and writing the disk cache"
    )
    common.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $POLYQEC_CACHE_DIR or ~/.cache/polyqec)",
    )
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker streams for randomized searches, run in parallel processes",
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

    def add(name: str, func, help_text: str, *, with_spec: bool = True):
        parents = [common, spec_arg] if with_spec else [common]
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(func=func)
        return p

    add("check", _cmd_check, "symbolic validity, commutation, and indecomposability")
    add("classify", _cmd_classify, "family-tree tag (parity pair of generator weights)")
    add("lift", _cmd_lift, "lift to the hypergraph-product parent")
    add("compactify", _cmd_compactify, "apply the file's [lift] data and compare")
    add("instantiate", _cmd_instantiate, "build parity-check matrices on the boundary")
    add("params", _cmd_params, "code parameters n, k on the boundary")

    p = add("distance", _cmd_distance, "exact or randomized distance search")
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
        help="largest n for exhaustive kernel enumeration",
    )
    p.add_argument(
        "--trials", type=int, default=10000, help="randomized-search trial budget"
    )

    p = add("barrier", _cmd_barrier, "exact energy barrier under the state cap")
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
    p.add_argument(
        "--four-way",
        action="store_true",
        help="also report classical barriers of HX, HZ and their transposes",
    )

    p = add("bounds", _cmd_bounds, "locality-driven distance-bound summary")
    p.add_argument(
        "--n",
        type=int,
        default=None,
        help="evaluate at this block length instead of the boundary's",
    )

    add(
        "reproduce-appendix",
        _cmd_reproduce_appendix,
        "re-derive every bundled family-tree table row",
        with_spec=False,
    )

    p = add("export-matrix", _cmd_export_matrix, "write a parity-check matrix")
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
