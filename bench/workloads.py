"""Job catalogues and seeded job lists for the four benchmark workloads.

A *catalogue* is the finite, fixed universe of jobs a workload draws from;
``make_reference.py`` records the answer of every catalogue job.
``job_list(workload, seed, ref)`` is the job list one run times.  Every
seed gets the same jobs, drawn from the catalogue by a fixed generator; the
seed only sets their order, so runs with different seeds time the same
work.

A job is a dict:

* ``id`` — unique name, also the key of its reference answer;
* ``spec`` — the ``.code`` file text the program reads, or None;
* ``argv`` — the command line after ``polyqec``; the string ``{spec}`` is
  replaced by the written spec file's path;
* optional ``ladder`` / ``budget`` / ``published`` entries for bb-search.

This module imports nothing from the program: it only writes inputs.
"""

from __future__ import annotations

import random

WORKLOADS = ("bb-params", "bb-search", "exact-small", "symbolic-cli")
# Nominal seconds of one untraced pass at the parent commit on a 2-core
# host; a run of --seconds S makes round(S / PASS_SECONDS) passes.
PASS_SECONDS = {"bb-params": 6.5, "bb-search": 10.0, "exact-small": 5.0, "symbolic-cli": 4.0}

# Literature bivariate-bicycle polynomial pairs (Bravyi et al.,
# arXiv:2308.07915, Table 3), with x of order l and y of order m.
BB_PAIRS = {
    "gross": ("x^3 + y + y^2", "y^3 + x + x^2"),
    "bb90": ("x^9 + y + y^2", "1 + x^2 + x^7"),
    "bb288": ("x^3 + y^2 + y^7", "y^3 + x + x^2"),
    "bb360": ("x^9 + y + y^2", "y^3 + x^25 + x^26"),
    "bb756": ("x^3 + y^10 + y^17", "y^5 + x^3 + x^19"),
    "bb784": ("x^26 + y^6 + y^8", "y^7 + x^9 + x^20"),
}

# name -> (pair, l, m, n, k, d, d proven); d is an upper bound when unproven
PUBLISHED = {
    "bb72": ("gross", 6, 6, 72, 12, 6, True),
    "bb90": ("bb90", 15, 3, 90, 8, 10, True),
    "bb108": ("gross", 9, 6, 108, 8, 10, True),
    "bb144": ("gross", 12, 6, 144, 12, 12, True),
    "bb288": ("bb288", 12, 12, 288, 12, 18, True),
    "bb756": ("bb756", 21, 18, 756, 16, 34, False),
    "bb784": ("bb784", 28, 14, 784, 24, 24, False),
}


def spec_text(name: str, variables: str, f: str, g: str | None, boundary=()) -> str:
    lines = ["[meta]", f"name = {name}", "", "[code]", f"variables = {variables}", f"f = {f}"]
    if g is not None:
        lines.append(f"g = {g}")
    if boundary:
        lines += ["", "[boundary]", *boundary]
    return "\n".join(lines) + "\n"


def torus(variables: str, sides) -> list[str]:
    return [f"{v}^{s} = 1" for v, s in zip(variables.split(), sides)]


def _job(jid: str, argv: list[str], spec: str | None = None, **extra) -> dict:
    return {"id": jid, "spec": spec, "argv": argv, **extra}


# -- bb-params ---------------------------------------------------------------

# group orders |G| = n / 2; n runs from 144 to 4608
PARAM_ORDERS = (72, 144, 288, 576, 1152, 2304)
# jobs per pass and stratum: (literature with k > 0, random pairs, twisted);
# the 90th percentile falls inside the n = 2304 stratum
PARAM_MIX = {72: (6, 3, 3), 144: (6, 3, 3), 288: (6, 3, 3), 576: (6, 3, 3),
             1152: (6, 3, 3), 2304: (1, 0, 0)}
_POOL = 12  # random and twisted catalogue entries per stratum


def _shapes(order: int) -> list[tuple[int, int]]:
    """Torus sides (l, m) with l * m = order, both >= 3 and aspect <= 4."""
    return [
        (l, order // l)
        for l in range(3, order // 3 + 1)
        if order % l == 0 and max(l, order // l) <= 4 * min(l, order // l)
    ]


def _random_pair(rng: random.Random, l: int, m: int) -> tuple[str, str]:
    """Seeded BB-form pair x^a + y^b + y^c, y^d + x^e + x^f without collisions."""
    a = rng.randrange(1, l)
    b, c = sorted(rng.sample(range(m), 2))
    d = rng.randrange(1, m)
    e, f = sorted(rng.sample(range(l), 2))
    return f"x^{a} + y^{b} + y^{c}", f"y^{d} + x^{e} + x^{f}"


def _params_catalogue() -> list[dict]:
    jobs = []
    argv = ["params", "{spec}"]
    for order in PARAM_ORDERS:
        shapes = _shapes(order)
        for pair, (f, g) in BB_PAIRS.items():
            for l, m in shapes:
                jid = f"params/lit/{order}/{pair}/{l}x{m}"
                spec = spec_text(jid, "x y", f, g, torus("x y", (l, m)))
                jobs.append(_job(jid, argv, spec, stratum=order, group="lit"))
        rng = random.Random(f"bb-params/{order}")
        for i in range(_POOL):
            l, m = rng.choice(shapes)
            f, g = _random_pair(rng, l, m)
            jid = f"params/random/{order}/{i}"
            spec = spec_text(jid, "x y", f, g, torus("x y", (l, m)))
            jobs.append(_job(jid, argv, spec, stratum=order, group="random"))
        for i in range(_POOL):
            l, m = rng.choice(shapes)
            s = rng.randrange(1, m)
            if rng.random() < 0.5:
                f, g = _random_pair(rng, l, m)
            else:
                f, g = BB_PAIRS[rng.choice(sorted(BB_PAIRS))]
            jid = f"params/twisted/{order}/{i}"
            spec = spec_text(jid, "x y", f, g, [f"x^{l} = y^{s}", f"y^{m} = 1"])
            jobs.append(_job(jid, argv, spec, stratum=order, group="twisted"))
    return jobs


def _params_jobs(catalogue: list[dict], rng: random.Random, ref: dict) -> list[dict]:
    jobs = []
    pick = random.Random("bb-params/jobs")
    for order in PARAM_ORDERS:
        n_lit, n_random, n_twisted = PARAM_MIX[order]
        lit = [
            j for j in catalogue
            if j["stratum"] == order and j["group"] == "lit"
            and ref[j["id"]]["answer"]["k"] > 0
        ]
        for group, count, pool in (
            ("lit", n_lit, lit),
            ("random", n_random, None),
            ("twisted", n_twisted, None),
        ):
            if pool is None:
                pool = [j for j in catalogue if j["stratum"] == order and j["group"] == group]
            jobs += _draw(pick, pool, count)
    rng.shuffle(jobs)
    return jobs


def _draw(rng: random.Random, pool: list[dict], count: int) -> list[dict]:
    """count distinct jobs when the pool allows, cycling through it otherwise."""
    picked = []
    while len(picked) < count:
        picked += rng.sample(pool, min(len(pool), count - len(picked)))
    return picked


# -- bb-search ---------------------------------------------------------------

LADDER_CODES = ("bb72", "bb90", "bb108", "bb144", "bb288")
# Fixed panel of search streams per ladder code: time-to-distance is a
# heavy-tailed draw per stream, so every run times the same streams.  The
# cheap codes get more streams, which keeps the median job among the dense
# bb108 rungs instead of on the gap between the bb144 and bb288 rungs.
LADDER_SEEDS = {"bb72": 12, "bb90": 8, "bb108": 6, "bb144": 6, "bb288": 3}
LADDER_BASE = 64  # trials on the first rung; each rung doubles it
LADDER_MAX_RUNGS = 16
# code -> (trials, search seeds 1..k): the budget is split over several
# seeds so that the 90th-percentile job falls in a cluster of similar jobs,
# not on one job of the sparse tail of doubling ladder rungs
FIXED_BUDGET = {"bb756": (2000, 4), "bb784": (2000, 4), "gross48x24": (1000, 2)}
SEARCH_THREADS = "2"


def _bb_spec(name: str) -> tuple[str, int | None]:
    if name == "gross48x24":
        f, g = BB_PAIRS["gross"]
        return spec_text(name, "x y", f, g, torus("x y", (48, 24))), None
    pair, l, m, _n, _k, d, _proven = PUBLISHED[name]
    f, g = BB_PAIRS[pair]
    return spec_text(name, "x y", f, g, torus("x y", (l, m))), d


def rung_job(code: str, stream: int, rung: int) -> dict:
    spec, d = _bb_spec(code)
    trials = LADDER_BASE << rung
    return _job(
        f"search/ladder/{code}/s{stream}/r{rung}",
        ["distance", "{spec}", "--method", "random", "--threads", SEARCH_THREADS,
         "--trials", str(trials), "--seed", str(stream)],
        spec,
        ladder=(code, stream),
        rung=rung,
        published=d,
    )


def _search_catalogue() -> list[dict]:
    """Params checks and fixed-budget searches; ladder rungs come from rung_job."""
    jobs = []
    for name in (*PUBLISHED, "gross48x24"):
        spec, _ = _bb_spec(name)
        jobs.append(_job(f"search/params/{name}", ["params", "{spec}"], spec, code=name))
    for name, (trials, seeds) in FIXED_BUDGET.items():
        spec, d = _bb_spec(name)
        for seed in range(1, seeds + 1):
            jobs.append(
                _job(
                    f"search/fixed/{name}/s{seed}",
                    ["distance", "{spec}", "--method", "random", "--threads", SEARCH_THREADS,
                     "--trials", str(trials), "--seed", str(seed)],
                    spec,
                    code=name,
                    budget=trials,
                    published=d,
                )
            )
    return jobs


def ladder_starts(rng: random.Random) -> list[dict]:
    """First rung of every ladder in the panel, in seeded order."""
    starts = [rung_job(c, s, 0) for c in LADDER_CODES for s in range(1, LADDER_SEEDS[c] + 1)]
    rng.shuffle(starts)
    return starts


# -- exact-small -------------------------------------------------------------

TWO_BLOCK_FIXTURES = {
    "toric": ("x y", "1 + x", "1 + y"),
    "gross": ("x y", "x^3 + y + y^2", "y^3 + x + x^2"),
    "honeycomb_color": ("x y", "1 + x + y", "1 + x^-1 + y^-1"),
    "haah": ("x y z", "1 + x + y + z", "1 + x*y + x*z + y*z"),
    "checkerboard": ("x y z", "1 + x + y + z", "1 + x^-1 + y^-1 + z^-1"),
    "hhb_a": ("x y z", "1 + x + y + z + x*y + y*z + x*z + x*y*z",
              "1 + x^-1*y + y*z + x*y + y^2 + y*z^-1"),
    "fibonacci_fsl": ("x y z", "1 + z", "1 + x + x^-1 + x*y"),
    "fsl_odd_odd": ("x y z", "1 + y + x*y", "1 + z + x*z"),
    "fsl_odd_even": ("x y z", "1 + y + x*y", "1 + z"),
    "sierpinski_prism": ("x y z", "1 + x + y", "1 + z"),
    "decomposable_example": ("x y z", "1 + x^-1*y + x^-1*z", "1 + z^-1*y"),
}
LIGHT_REPEATS = 2  # every light job runs twice per pass, in seeded order
LIGHT_KERNEL_CAP = 16  # light distance jobs sweep at most 2^16 states per sector
BARRIER_LIGHT_N = 20  # the default barrier cap

HEAVY_JOBS = (
    ("toric", (4, 4), ["distance", "--method", "exact", "--exact-cap", "64"]),
    ("toric", (4, 5), ["distance", "--method", "exact", "--exact-cap", "64"]),
    ("gross", (3, 6), ["distance", "--method", "exact", "--exact-cap", "64"]),
    ("newman_moore", (6, 6), ["barrier", "--cap", "64"]),
    ("haah", (2, 3, 3), ["barrier", "--cap", "64", "--sector", "X"]),
)
CLASSICAL_FIXTURES = {"newman_moore": ("x y", "1 + x + y")}


def _small_tori(dim: int) -> list[tuple[int, ...]]:
    """Tori with every side >= 2 and 4 <= |G| <= 14 (so 8 <= n <= 28)."""
    if dim == 2:
        return [(a, b) for a in range(2, 8) for b in range(2, 8) if 4 <= a * b <= 14]
    return [
        (a, b, c)
        for a in range(2, 4) for b in range(2, 4) for c in range(2, 4)
        if 4 <= a * b * c <= 14
    ]


def _exact_catalogue() -> list[dict]:
    jobs = []
    for name, (variables, f, g) in TWO_BLOCK_FIXTURES.items():
        for sides in _small_tori(len(variables.split())):
            shape = "x".join(map(str, sides))
            spec = spec_text(f"{name}-{shape}", variables, f, g, torus(variables, sides))
            n = 2 * _prod(sides)
            jobs.append(
                _job(f"exact/light/distance/{name}/{shape}",
                     ["distance", "{spec}", "--method", "exact"], spec, group="light", n=n)
            )
            if n <= BARRIER_LIGHT_N:
                jobs.append(
                    _job(f"exact/light/barrier/{name}/{shape}",
                         ["barrier", "{spec}"], spec, group="light", n=n)
                )
    for name, sides, argv in HEAVY_JOBS:
        variables, f, g = TWO_BLOCK_FIXTURES.get(name) or (*CLASSICAL_FIXTURES[name], None)
        shape = "x".join(map(str, sides))
        spec = spec_text(f"{name}-{shape}", variables, f, g, torus(variables, sides))
        jobs.append(
            _job(f"exact/heavy/{argv[0]}/{name}/{shape}",
                 [argv[0], "{spec}", *argv[1:]], spec, group="heavy")
        )
    return jobs


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def _exact_jobs(catalogue: list[dict], rng: random.Random, ref: dict) -> list[dict]:
    light = [j for j in catalogue if j["group"] == "light" and ref[j["id"]]["facts"]["light"]]
    jobs = light * LIGHT_REPEATS + [j for j in catalogue if j["group"] == "heavy"]
    rng.shuffle(jobs)
    return jobs


# -- symbolic-cli ------------------------------------------------------------

SYMBOLIC_PAIRS = 260  # four jobs each
APPENDIX_RUNS = 4


def _random_poly(rng: random.Random, names: list[str], terms: int) -> str:
    monos = set()
    while len(monos) < terms:
        monos.add(tuple(rng.randint(-2, 2) for _ in names))
    out = []
    for mono in sorted(monos):
        factors = [f"{v}^{e}" if e != 1 else v for v, e in zip(names, mono) if e]
        out.append("*".join(factors) or "1")
    return " + ".join(out)


def _symbolic_catalogue() -> list[dict]:
    jobs = []
    rng = random.Random("symbolic-cli")
    for i in range(SYMBOLIC_PAIRS):
        names = ["x", "y", "z", "w"][: rng.randint(2, 4)]
        f = _random_poly(rng, names, rng.randint(3, 6))
        g = _random_poly(rng, names, rng.randint(3, 6))
        spec = spec_text(f"pair{i}", " ".join(names), f, g)
        n_eval = str(rng.choice((144, 1024, 4608, 100000)))
        for command, extra in (("check", []), ("classify", []), ("lift", []),
                               ("bounds", ["--n", n_eval])):
            jobs.append(_job(f"symbolic/{command}/{i}", [command, "{spec}", *extra],
                             spec, pair=i))
    jobs.append(_job("symbolic/reproduce-appendix", ["reproduce-appendix"]))
    return jobs


def _symbolic_jobs(catalogue: list[dict], rng: random.Random, ref: dict) -> list[dict]:
    jobs = [j for j in catalogue if "pair" in j]
    jobs += [j for j in catalogue if j["id"] == "symbolic/reproduce-appendix"] * APPENDIX_RUNS
    rng.shuffle(jobs)
    return jobs


# -- entry points ------------------------------------------------------------

_CATALOGUES = {
    "bb-params": _params_catalogue,
    "bb-search": _search_catalogue,
    "exact-small": _exact_catalogue,
    "symbolic-cli": _symbolic_catalogue,
}


def catalogue(workload: str) -> list[dict]:
    return _CATALOGUES[workload]()


def job_list(workload: str, seed: int, ref: dict) -> list[dict]:
    """The jobs of one pass, in seeded order.

    For bb-search this is the params checks, the fixed-budget searches and
    the first rung of every ladder; later rungs are appended by the runner
    while a ladder has not reached its published distance.
    """
    rng = random.Random(f"{workload}/{seed}")
    cat = catalogue(workload)
    if workload == "bb-params":
        return _params_jobs(cat, rng, ref)
    if workload == "exact-small":
        return _exact_jobs(cat, rng, ref)
    if workload == "symbolic-cli":
        return _symbolic_jobs(cat, rng, ref)
    jobs = cat + ladder_starts(rng)
    rng.shuffle(jobs)
    return jobs
