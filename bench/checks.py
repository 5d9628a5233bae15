"""Correctness gate: answer fields against the reference, plus checks the
benchmark computes itself.

Only answer fields are compared, never whole documents, so the program may
add counters or timing to ``result`` without failing the gate.  Exact
distances are unique, so ``d_upper`` and ``d_lower`` of an exact job are
always compared.  A randomized search is compared with its reference only
while its ``method`` string is unchanged: a new candidate order must
announce itself with a new method name, and then only the bounds below
apply.

Independent checks, using no program code:

* a distance witness has weight ``d_upper``, has even overlap with every
  check of the opposite sector (a parity loop over check supports built here
  from the polynomials and the torus sides), and lies outside the row space
  of its own sector's checks (a GF(2) elimination done here), so it is a
  nontrivial logical, not a stabilizer;
* a proven published distance is never undercut, and ``params`` on a
  published code gives its published [[n, k]].

The lift round trip uses the program's ``codes.compactify`` on the lift the
command printed, and compares with the normalized input code.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re

ANSWER_FIELDS = {
    "params": ("kind", "n", "k", "rank_hx", "rank_hz", "rank", "kernel_dimension",
               "group_order", "tanner_components"),
    "distance": ("kind", "d_upper", "d_lower", "method", "trials", "workers", "search_seed"),
    "barrier": ("kind", "barrier", "cap"),
    "check": ("kind", "verdict", "css_commutes", "check_weight", "indecomposable",
              "profile", "family", "indecomposable_on_boundary"),
    "classify": ("family", "parities", "f_weight", "g_weight"),
    "lift": ("labels", "substitution", "twist_basis", "parent"),
    "bounds": ("check_weight", "variable_count", "locality_dimension", "n",
               "indecomposable", "variables_within_weight_cap",
               "distance_upper_scaling", "distance_lower_scaling"),
    "reproduce-appendix": ("all_pass",),
}


def answer(command: str, result: dict) -> dict:
    """The answer fields of one command's ``result`` block."""
    out = {k: result[k] for k in ANSWER_FIELDS[command] if k in result}
    if command == "barrier":
        for key in ("sectors", "classical"):
            block = result.get(key)
            if key == "classical" and block is not None:
                out["classical"] = block["barrier"]
            elif block is not None:
                out["sectors"] = {s: v["barrier"] for s, v in block.items()}
    if command == "reproduce-appendix":
        out["rows"] = [[r["name"], r["status"]] for r in result["rows"]]
    return out


def digest(ans: dict) -> str:
    """Short content hash of answer fields, for catalogues too large to spell out."""
    text = json.dumps(ans, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def compare(job: dict, exit_code: int, result: dict | None, ref: dict | None) -> list[str]:
    """Problems with one job's answer against its reference entry."""
    command = job["argv"][0]
    if ref is None:
        if "ladder" in job and result is not None:
            return []  # a ladder rung the reference run never needed
        return ["no reference answer for this job"]
    if exit_code != ref["exit"]:
        return [f"exit status {exit_code}, reference {ref['exit']}"]
    if result is None:
        return []
    got = answer(command, result)
    if "sha" in ref:
        return [] if digest(got) == ref["sha"] else ["answer differs from reference digest"]
    want = ref["answer"]
    if command == "distance" and got.get("method") != want.get("method"):
        if "exact" not in job["argv"]:
            return []  # a different search: only the bounds apply
        # a different exact method: the distance itself must not change
        got = {k: got.get(k) for k in ("d_upper", "d_lower")}
        want = {k: want.get(k) for k in ("d_upper", "d_lower")}
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return [f"answer differs from reference in {diff}"]
    return []


# -- check matrices built by the benchmark ------------------------------------

_TERM = re.compile(r"^([a-z]+)(?:\^(-?\d+))?$")


def parse_terms(text: str, names: list[str]) -> list[tuple[int, ...]]:
    """Exponent vectors of a '+'-separated sum of '*'-products of powers."""
    terms = []
    for term in text.split("+"):
        exps = [0] * len(names)
        term = term.strip()
        if term != "1":
            for factor in term.split("*"):
                m = _TERM.match(factor.strip())
                if m is None:
                    raise ValueError(f"cannot read term {term!r}")
                exps[names.index(m.group(1))] += int(m.group(2) or 1)
        terms.append(tuple(exps))
    return terms


def read_spec(text: str) -> tuple[list[str], str, str | None, list[int]]:
    """(variables, f, g, torus sides) of a spec written by workloads.spec_text."""
    fields, sides = {}, {}
    for line in text.splitlines():
        if " = " not in line:
            continue
        key, value = (s.strip() for s in line.split(" = ", 1))
        if "^" in key and value == "1":
            var, exp = key.split("^")
            sides[var] = int(exp)
        else:
            fields[key] = value
    names = fields["variables"].split()
    return names, fields["f"], fields.get("g"), [sides[v] for v in names if v in sides]


def check_supports(spec: str) -> tuple[list[set[int]], list[set[int]], int]:
    """(X check supports, Z check supports, n) on a plain torus.

    Qubit column = block * |G| + row-major index of the exponent vector,
    the program's layout.  X check at h: h*m for m in f (left), h*m for m
    in g (right); Z check at h: antipodes of g (left) and f (right).
    """
    names, f, g, sides = read_spec(spec)
    order = 1
    for s in sides:
        order *= s

    def index(exps) -> int:
        idx = 0
        for e, s in zip(exps, sides):
            idx = idx * s + e % s
        return idx

    def coords(h: int) -> list[int]:
        out = []
        for s in reversed(sides):
            out.append(h % s)
            h //= s
        return out[::-1]

    f_terms, g_terms = parse_terms(f, names), parse_terms(g, names)
    xs, zs = [], []
    for h in range(order):
        c = coords(h)
        x, z = set(), set()
        for block, terms, sign, target in ((0, f_terms, 1, x), (1, g_terms, 1, x),
                                           (0, g_terms, -1, z), (1, f_terms, -1, z)):
            for t in terms:
                target ^= {block * order + index([a + sign * b for a, b in zip(c, t)])}
        xs.append(x)
        zs.append(z)
    return xs, zs, 2 * order


def reduce_vector(vec: int, basis: dict[int, int]) -> int:
    """Reduce a bit-packed vector by an echelon basis keyed by leading bit."""
    while vec:
        top = vec.bit_length() - 1
        if top not in basis:
            return vec
        vec ^= basis[top]
    return 0


def echelon(rows) -> dict[int, int]:
    """GF(2) echelon basis of bit-packed rows, keyed by leading bit."""
    basis: dict[int, int] = {}
    for row in rows:
        row = reduce_vector(row, basis)
        if row:
            basis[row.bit_length() - 1] = row
    return basis


def gf2_rank(rows) -> int:
    return len(echelon(rows))


@functools.lru_cache(maxsize=None)
def sector_checks(spec: str) -> dict[str, tuple[list[set[int]], dict[int, int]]]:
    """Per sector: the check supports and the echelon basis of their rows."""
    xs, zs, _n = check_supports(spec)
    return {
        sector: (supports, echelon(sum(1 << q for q in c) for c in supports))
        for sector, supports in (("X", xs), ("Z", zs))
    }


def witness_problems(spec: str, result: dict) -> list[str]:
    """Weight, opposite-sector parity and nontriviality of a distance witness."""
    witness = result.get("witness")
    if witness is None:
        return ["no witness"]
    support = set(witness["support"])
    problems = []
    if len(support) != result["d_upper"] or witness["weight"] != result["d_upper"]:
        problems.append(f"witness weight {len(support)} is not d_upper={result['d_upper']}")
    sector = witness.get("sector")
    if sector not in ("X", "Z"):
        return problems + [f"witness sector {sector!r} is neither X nor Z"]
    checks = sector_checks(spec)
    own_checks, own_basis = checks[sector]
    if any(q < 0 or q >= 2 * len(own_checks) for q in support):
        return problems + ["witness has qubits outside the code"]
    # an X-type logical must commute with every Z check, and vice versa
    opposite = checks["Z" if sector == "X" else "X"][0]
    if any(len(check & support) % 2 for check in opposite):
        problems.append(f"{sector} witness anticommutes with a check")
    if reduce_vector(sum(1 << q for q in support), own_basis) == 0:
        problems.append(f"{sector} witness is a product of {sector} checks, not a logical")
    return problems


def lift_problems(spec: str, result: dict) -> list[str]:
    """Compactify the printed lift and compare with the normalized input code."""
    from polyqec.codes import HGPCode, TwoBlockCode, compactify
    from polyqec.poly import VarContext, parse_poly

    names, f, g, _ = read_spec(spec)
    child_ctx = VarContext(tuple(names))
    parent = result["parent"]
    p_ctx = VarContext(tuple(parent["f_vars"]) + tuple(parent["g_vars"]))
    parent_code = HGPCode(
        p_ctx,
        parse_poly(parent["f"], p_ctx),
        parse_poly(parent["g"], p_ctx),
        f_vars=tuple(parent["f_vars"]),
        g_vars=tuple(parent["g_vars"]),
    )
    substitution = {v: parse_poly(t, child_ctx) for v, t in result["substitution"].items()}
    twists = [t["vector"] for t in result["twists"]]
    child = compactify(parent_code, substitution, twists)
    declared = TwoBlockCode(child_ctx, parse_poly(f, child_ctx), parse_poly(g, child_ctx))
    if child.normalized() != declared.normalized():
        return ["lift does not compactify back to the input code"]
    return []

