"""Batch verification suites over the shipped testbeds.

Each suite runs one family of checks (theorem sweep, slice formulas, the
necessary condition that mu adds, proof replay, the inequality batteries)
over the testbeds of a `RunConfig` and returns a flat list of record dicts.  A
config holds only what a run varies: the testbeds, the denominator of the
parameter grids and the seed of the randomized batteries.  Records are
pure data (rationals stay Fractions until serialization) and carry a
sortable "key" plus a "pass" flag, so the CLI and the acceptance tests
share one code path.

Sweep grids follow the verification defaults: body coefficients from
DEFAULT_GRID = {1/2, 1, 3/2, 2, 3}, slice/replay parameters on a
denominator-12 grid (coarsened to denominator 4 on the three-folds, which
fixes the set of three-fold slice and replay records the acceptance runs
check)."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import ceil

from .additivity import (
    ConeCLM,
    check_additivity,
    necessary_condition_check,
    slice_decomposition_replay,
    strict_search,
    theorem_sweep_pairs,
)
from .exactgeom import check_enumeration
from .inequalities import (
    cor15_check,
    cor15_sweep,
    delta_map,
    derivative_check_bodies,
    injectivity_check,
    check_cor13,
    lehmann_xiao_sweep,
    lemma61_check,
    nef_body,
)
from .okounkov import ample_interval, no_body_rational, slice_formula_checks
from .toric import (AdmissibleFlag, Fan, FanError, TDivisor, flag_corresponds, mu,
                    testbed, testbed_names)

DEFAULT_GRID = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))

# (flag ray order, L coefficients, M coefficients) per testbed: the flag
# corresponds to L and the sweep covers C_L(M) with the default grid.
SWEEP_CONFIGS = {
    "p1": [((0,), (0, 1), (0, 1))],
    "p2": [((1, 2), (1, 0, 0), (2, 0, 0))],
    "p3": [((0, 1, 2), (0, 0, 0, 1), (0, 0, 0, 2))],
    "p1xp1": [((0, 2), (0, 1, 0, 0), (0, 0, 0, 1)),
              ((2, 0), (0, 0, 0, 1), (0, 1, 0, 0))],
    "p1xp1xp1": [((0, 2, 4), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1))],
    "f1": [((1, 0), (0, 1, 0, 0), (1, 1, 1, 1)),
           ((0, 1), (1, 0, 0, 0), (1, 1, 1, 1))],
    "blpq-p2": [((3, 0), (0, 0, 0, 1, 0), (1, 1, 1, 1, 1))],
}

# (flag, ample divisor) cases for the slice-formula and endpoint checks
SLICE_CONFIGS = {
    "p2": [((1, 2), (2, 0, 0)), ((1, 2), (3, 0, 0)), ((0, 1), (2, 0, 0))],
    "p1xp1": [((0, 2), (0, 2, 0, 3)), ((0, 2), (0, 1, 0, 1)),
              ((0, 2), (0, 3, 0, 2)), ((2, 0), (0, 2, 0, 3)),
              ((2, 0), (0, 1, 0, 2))],
    "f1": [((1, 0), (1, 1, 1, 1)), ((1, 0), (2, 1, 1, 2)),
           ((0, 1), (1, 1, 1, 1)), ((2, 3), (1, 1, 1, 1))],
    "blpq-p2": [((3, 0), (1, 1, 1, 1, 1)), ((3, 0), (2, 2, 2, 2, 2)),
                ((0, 3), (1, 1, 1, 1, 1)), ((4, 1), (2, 1, 2, 1, 1))],
    "p3": [((0, 1, 2), (0, 0, 0, 2)), ((0, 1, 2), (0, 0, 0, 3))],
    "p1xp1xp1": [((0, 2, 4), (0, 1, 0, 1, 0, 1)),
                 ((0, 2, 4), (0, 2, 0, 1, 0, 2))],
}

# replay pairs: (flag, L, M, (a1, b1), (a2, b2)) with N_i = a_i L + b_i M
REPLAY_CONFIGS = {
    "p2": [((1, 2), (1, 0, 0), (2, 0, 0), (1, 1), (2, 1))],
    "p1xp1": [((0, 2), (0, 1, 0, 0), (0, 0, 0, 1), (1, 1), (2, 1)),
              ((0, 2), (0, 1, 0, 0), (0, 0, 0, 1), (1, 2), (3, 1)),
              ((0, 2), (0, 1, 0, 0), (0, 0, 0, 1), (2, 2), (2, 2)),
              ((0, 2), (0, 1, 0, 0), (0, 0, 0, 1),
               (Fraction(1, 2), 1), (1, Fraction(3, 2)))],
    "f1": [((1, 0), (0, 1, 0, 0), (1, 1, 1, 1), (1, 3), (Fraction(1, 2), 1)),
           ((1, 0), (0, 1, 0, 0), (1, 1, 1, 1), (1, 2), (1, 2)),
           ((0, 1), (1, 0, 0, 0), (1, 1, 1, 1), (1, 1), (2, 1))],
    "blpq-p2": [((3, 0), (0, 0, 0, 1, 0), (1, 1, 1, 1, 1), (1, 2), (Fraction(1, 2), 1))],
    "p3": [((0, 1, 2), (0, 0, 0, 1), (0, 0, 0, 2), (1, 1), (2, 1))],
    "p1xp1xp1": [((0, 2, 4), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1),
                  (1, 1), (2, 1))],
}

COR13_TESTBEDS = ("p2", "p1xp1", "p1xp1xp1")

INJECTIVITY_PAIRS = {
    "p1xp1": ((0, 2, 0, 1), (0, 1, 0, 2)),
    "p1xp1xp1": ((0, 1, 0, 1, 0, 1), (0, 2, 0, 1, 0, 1)),
    "f1": ((0, 0, 1, 1), (0, 0, 1, 2)),      # 2H-E and 3H-E
    "blpq-p2": ((1, 1, 1, 1, 1), (2, 1, 1, 1, 1)),
}


# sample sizes of the randomized batteries
COR15_COUNT = 200
LX_COUNT = 100


class RunConfig:
    """What a run varies; the defaults are the acceptance runs.

    `fans` is the ordered name -> Fan mapping a run covers (default: the
    builtin testbeds in `testbed_names()` order); suites driven by a
    per-testbed table skip the names it does not list, and lemma61 draws
    its random pairs in this order.  `grid_den` is the denominator of the
    slice and replay parameters; `seed` seeds the randomized batteries.
    """

    def __init__(self, fans: dict | None = None, grid_den: int = 12, seed: int = 2024):
        self.fans = {n: testbed(n) for n in testbed_names()} if fans is None else fans
        self.grid_den, self.seed = grid_den, seed


def auto_sweep_config(fan: Fan):
    """Sweep spec for a foreign (catalog) testbed.

    Searches for an invariant flag corresponding to its own O(Y_1) class
    and pairs it with the fan's ample class (the sum of the nef cone's
    extreme rays); returns [] when no such flag or no ample class exists,
    in which case the sweep is honestly skipped.
    """
    try:
        m_div = fan.classes.divisor_from_class(fan.classes.ample_class)
    except FanError:
        return []
    for cone in fan.max_cones:
        for order in permutations(cone):
            flag = AdmissibleFlag(fan, order)
            l_div = flag.divisor_of_y1()
            if flag_corresponds(flag, l_div)[0]:
                return [(order, l_div.coeffs, m_div.coeffs)]
    return []


def _listed(config: RunConfig, table):
    """(name, fan) for the configured testbeds that `table` lists."""
    return [(name, fan) for name, fan in config.fans.items() if name in table]


def _theorem_pairs(config: RunConfig):
    """(testbed, flag, key, pair, N1, N2) for every grid pair of every
    sweep cone C_L(M) of every configured testbed."""
    for name, fan in config.fans.items():
        specs = SWEEP_CONFIGS.get(name) or auto_sweep_config(fan)
        for flag_rays, lco, mco in specs:
            flag = AdmissibleFlag(fan, flag_rays)
            cone = ConeCLM(TDivisor(fan, lco), TDivisor(fan, mco))
            for (c1, n1), (c2, n2) in theorem_sweep_pairs(cone, DEFAULT_GRID):
                key = f"{name}/{flag.label()}/{c1[0]},{c1[1]}/{c2[0]},{c2[1]}"
                yield name, flag, key, (c1, c2), n1, n2


def _t_grid(fan: Fan, config: RunConfig, start: int, endpoint: Fraction):
    """The parameters k/den with start <= k and k/den < endpoint, refused
    over the enumeration budget before any is made.  The three-folds keep
    the coarser grid that defines their slice and replay record sets (a
    finer one multiplies the 3D replays per case)."""
    den = min(config.grid_den, 4) if fan.dim >= 3 else config.grid_den
    stop = ceil(endpoint * den)
    check_enumeration(stop - start, f"the t-grid of --grid-den {config.grid_den}")
    return [Fraction(k, den) for k in range(start, stop)]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_additivity(config: RunConfig) -> list[dict]:
    records = []
    for name, flag, key, pair, n1, n2 in _theorem_pairs(config):
        verdict = check_additivity(n1, n2, flag)
        rec = {
            "key": "additivity/" + key, "suite": "additivity", "testbed": name,
            "flag": flag.ray_indices, "pair": pair, "status": verdict.status,
            "volumes": (verdict.vol_n1, verdict.vol_n2, verdict.vol_sum_body),
            "pass": verdict.status == "equal",
        }
        if verdict.witness is not None:
            rec["witness"] = verdict.witness
            rec["violated"] = verdict.violated
        records.append(rec)
    return records


def suite_slices(config: RunConfig) -> list[dict]:
    """Per case, the endpoint identity and the slice formula at each grid t of the
    one open interval (lo, hi) of t with M - t O(Y_1) ample, which holds 0 as M is
    ample; ample classes are big, so hi <= mu(M; Y_1) and the grid is [0, hi)."""
    records = []
    for name, fan in _listed(config, SLICE_CONFIGS):
        for flag_rays, mco in SLICE_CONFIGS[name]:
            flag = AdmissibleFlag(fan, flag_rays)
            m_div = TDivisor(fan, mco)
            lo, hi = ample_interval(m_div, flag)
            if not lo < 0 < hi:
                raise ValueError(f"slice case {name}/{mco} is not ample")
            # the endpoint identity: mu(M; Y_1) from the cone is the body's max nu_1
            endpoint = mu(fan, m_div, flag.divisor_of_y1())
            top = no_body_rational(m_div, flag).body.first_coordinate_range()[1]
            case = f"slices/{name}/{flag.label()}/{','.join(map(str, mco))}"
            records.append({"key": case + "/mu-endpoint", "suite": "slices",
                            "testbed": name, "check": "mu-endpoint",
                            "mu": endpoint, "pass": top == endpoint})
            ts = _t_grid(fan, config, 0, hi)
            for t, (ok, witness) in zip(ts, slice_formula_checks(m_div, flag, ts)):
                rec = {"key": case + f"/t={t}", "suite": "slices",
                       "testbed": name, "check": "slice-formula",
                       "t": t, "pass": ok}
                if witness is not None:
                    rec["witness"] = witness
                records.append(rec)
    return records


def suite_replay(config: RunConfig) -> list[dict]:
    records = []
    for name, fan in _listed(config, REPLAY_CONFIGS):
        for flag_rays, lco, mco, (a1, b1), (a2, b2) in REPLAY_CONFIGS[name]:
            flag = AdmissibleFlag(fan, flag_rays)
            cone = ConeCLM(TDivisor(fan, lco), TDivisor(fan, mco))
            n1 = cone.member(a1, b1)
            n2 = cone.member(a2, b2)
            endpoint = mu(fan, n1 + n2, flag.divisor_of_y1())
            case = f"replay/{name}/{flag.label()}/{a1},{b1}/{a2},{b2}"
            for t in _t_grid(fan, config, 1, endpoint):
                ok, trace = slice_decomposition_replay(n1, n2, flag, cone, t)
                rec = {
                    "key": case + f"/t={t}", "suite": "replay",
                    "testbed": name, "t": t,
                    "t0": trace["meta"]["t0"], "case": trace["meta"]["case"],
                    "steps": len(trace["steps"]), "pass": ok,
                }
                if not ok:
                    rec["failed_steps"] = [s for s in trace["steps"]
                                           if not s["equal"]]
                records.append(rec)
    return records


def suite_prop14(config: RunConfig) -> list[dict]:
    records = []
    for name, flag, key, _, n1, n2 in _theorem_pairs(config):
        rep = necessary_condition_check(n1, n2, flag)
        records.append({
            "key": "prop14/" + key, "suite": "prop14", "testbed": name,
            "verdict": rep["verdict"],
            "mu": (rep["mu_L"], rep["mu_M"], rep["mu_sum"]),
            "pass": rep["ok"],
        })
    return records


def suite_cor13(config: RunConfig) -> list[dict]:
    records = []
    for name, fan in _listed(config, COR13_TESTBEDS):
        flag_rays, lco, mco = SWEEP_CONFIGS[name][0]
        dmap = delta_map(TDivisor(fan, lco), TDivisor(fan, mco),
                         AdmissibleFlag(fan, flag_rays))
        d = fan.dim
        tuples = []
        for k in range(d + 1):
            tuples.append(("multidegree-k%d" % k,
                           [dmap.L] * k + [dmap.M] * (d - k)))
        mixtures = [dmap.L + dmap.M, dmap.L.scaled(2) + dmap.M,
                    dmap.L + dmap.M.scaled(3)]
        tuples.append(("mixed-classes", mixtures[:d]))
        for label, classes in tuples:
            ok, rep = check_cor13(dmap, classes)
            records.append({
                "key": f"cor13/{name}/{label}", "suite": "cor13",
                "testbed": name, "lhs": rep["lhs"], "rhs": rep["rhs"],
                "pass": ok,
            })
    for name, fan in _listed(config, INJECTIVITY_PAIRS):
        lco, mco = INJECTIVITY_PAIRS[name]
        rec = injectivity_check(ConeCLM(TDivisor(fan, lco), TDivisor(fan, mco)))
        records.append({
            "key": f"cor13/{name}/injectivity", "suite": "cor13",
            "testbed": name, "lhs": rec.lhs, "rhs": rec.rhs,
            "slack": rec.slack, "pass": rec.passed and rec.slack != 0,
        })
    return records


LEMMA61_PAIRS = {
    "p2": [((1, 2), (1, 0, 0), (2, 0, 0)), ((1, 2), (3, 0, 0), (1, 0, 0))],
    "p1xp1": [((0, 2), (0, 3, 0, 5), (0, 1, 0, 0)),
              ((0, 2), (0, 1, 0, 1), (0, 2, 0, 3)),
              ((2, 0), (0, 2, 0, 1), (0, 1, 0, 3))],
    "f1": [((1, 0), (1, 1, 1, 1), (2, 2, 2, 2)),
           ((0, 1), (1, 1, 1, 1), (1, 0, 0, 0))],
    "blpq-p2": [((3, 0), (1, 1, 1, 1, 1), (2, 2, 2, 2, 2)),
                ((3, 0), (2, 1, 2, 1, 1), (1, 1, 1, 1, 1))],
    "p3": [((0, 1, 2), (0, 0, 0, 1), (0, 0, 0, 2))],
    "p1xp1xp1": [((0, 2, 4), (0, 1, 0, 1, 0, 1), (0, 1, 0, 0, 0, 0)),
                 ((0, 2, 4), (0, 2, 0, 1, 0, 1), (0, 1, 0, 2, 0, 1))],
}


def _lemma61_record(key: str, name: str, l_div, m_div, flag) -> dict:
    rec = lemma61_check(l_div, m_div, flag)
    corr = rec.inputs["flag_corresponds_to"]
    return {"key": key, "suite": "lemma61", "testbed": name,
            "lhs": rec.lhs, "rhs": rec.rhs, "slack": rec.slack,
            "corresponds": corr,
            "pass": rec.passed and (corr is None or rec.slack == 0)}


def suite_lemma61(config: RunConfig) -> list[dict]:
    records = []
    rnd = random.Random(config.seed)
    for name, fan in _listed(config, LEMMA61_PAIRS):
        for flag_rays, lco, mco in LEMMA61_PAIRS[name]:
            flag = AdmissibleFlag(fan, flag_rays)
            key = (f"lemma61/{name}/{flag.label()}/"
                   f"{','.join(map(str, lco))}/{','.join(map(str, mco))}")
            records.append(_lemma61_record(key, name, TDivisor(fan, lco),
                                           TDivisor(fan, mco), flag))
        # randomized ample pairs on the first flag of the testbed
        flag_rays, lco, mco = SWEEP_CONFIGS[name][0]
        flag = AdmissibleFlag(fan, flag_rays)
        cone = ConeCLM(TDivisor(fan, lco), TDivisor(fan, mco))
        grid_members = [n for _, n in cone.grid_members(DEFAULT_GRID)]
        for idx in range(min(16, len(grid_members) * (len(grid_members) - 1) // 2)):
            l_div = rnd.choice(grid_members)
            m_div = rnd.choice(grid_members)
            records.append(_lemma61_record(f"lemma61/{name}/{flag.label()}/random-{idx}",
                                           name, l_div, m_div, flag))
    return records


def _cor15_record(key: str, name: str, res: dict, **extra) -> dict:
    rec = res["direct"]
    return {"key": key, "suite": "cor15", "testbed": name,
            "lhs": rec.lhs, "rhs": rec.rhs, "slack": rec.slack,
            "proof_path": res["proof_path"] is not None,
            "pass": res["ok"], **extra}


def suite_cor15(config: RunConfig) -> list[dict]:
    records = []
    for name, fan in config.fans.items():
        if fan.dim < 2:
            continue
        for res in cor15_sweep(fan, COR15_COUNT, config.seed):
            records.append(_cor15_record(f"cor15/{name}/random-{res['index']:04d}",
                                         name, res, seed=res["seed"]))
        if name == "p1xp1":
            res = cor15_check(TDivisor(fan, (0, 1, 0, 1)), TDivisor(fan, (0, 1, 0, 0)),
                              TDivisor(fan, (0, 0, 0, 1)))
            rec = _cor15_record("cor15/p1xp1/tight-111-10-01", name, res)
            rec["pass"] = rec["pass"] and rec["slack"] == 0 and rec["proof_path"]
            records.append(rec)
    return records


DERIVATIVE_PAIRS = [
    ("p2", (1, 2), (1, 0, 0), (1, 0, 0)),
    ("p2", (1, 2), (1, 0, 0), (2, 0, 0)),
    ("p1xp1", (0, 2), (0, 1, 0, 1), (0, 1, 0, 1)),
    ("p1xp1", (0, 2), (0, 3, 0, 5), (0, 1, 0, 0)),
    ("p1xp1", (0, 2), (0, 2, 0, 3), (0, 1, 0, 2)),
    ("f1", (1, 0), (1, 1, 1, 1), (2, 2, 2, 2)),
    ("f1", (0, 1), (1, 1, 1, 1), (1, 0, 0, 0)),
    ("blpq-p2", (3, 0), (1, 1, 1, 1, 1), (2, 2, 2, 2, 2)),
    ("p3", (0, 1, 2), (0, 0, 0, 1), (0, 0, 0, 2)),
    ("p1xp1xp1", (0, 2, 4), (0, 1, 0, 1, 0, 1), (0, 1, 0, 2, 0, 1)),
    ("p1xp1xp1", (0, 2, 4), (0, 2, 0, 1, 0, 1), (0, 1, 0, 0, 0, 1)),
]


def suite_lx(config: RunConfig) -> list[dict]:
    records = []
    for dim in (2, 3):
        for rec in lehmann_xiao_sweep(dim, LX_COUNT, config.seed + dim):
            records.append({
                "key": f"lx/d{dim}/triple-{rec.inputs['triple']:04d}/k{rec.inputs['k']}",
                "suite": "lx", "dim": dim, "k": rec.inputs["k"],
                "lhs": rec.lhs, "rhs": rec.rhs, "slack": rec.slack,
                "seed": rec.inputs["seed"], "pass": rec.passed,
            })
    for idx, (name, flag_rays, lco, mco) in enumerate(DERIVATIVE_PAIRS):
        fan = config.fans.get(name)
        if fan is None:
            continue
        flag = AdmissibleFlag(fan, flag_rays)
        ok, info = derivative_check_bodies(nef_body(TDivisor(fan, lco), flag).body,
                                           nef_body(TDivisor(fan, mco), flag).body)
        records.append({
            "key": f"lx/derivative-{idx:02d}/{name}", "suite": "lx",
            "testbed": name, "coefficients": info["coefficients"], "pass": ok,
        })
    return records


def suite_strict_search(flag: AdmissibleFlag, bound: int = 5) -> list[dict]:
    fan = flag.fan
    rec = {"key": f"search/{fan.name}/{flag.label()}", "suite": "search",
           "testbed": fan.name, "pass": True}
    outcome = strict_search(flag, bound=bound)
    if outcome[0] == "strict":
        _, pair, verdict = outcome
        rec.update(outcome="strict", pair=pair, witness=verdict.witness,
                   violated=verdict.violated)
    else:
        _, checked, bound = outcome
        rec.update(outcome="none-found-within-bounds", pairs_checked=checked,
                   bound=bound)
    return [rec]


SUITES = {
    "additivity": suite_additivity,
    "slices": suite_slices,
    "replay": suite_replay,  # proof-mechanics replay, bundled into "all"
    "prop14": suite_prop14,
    "cor13": suite_cor13,
    "lemma61": suite_lemma61,
    "cor15": suite_cor15,
    "lx": suite_lx,
}


def run_suite(name: str, config: RunConfig) -> list[dict]:
    if name == "all":
        records = []
        for suite in SUITES.values():
            records.extend(suite(config))
        return records
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join([*SUITES, 'all'])}")
    return SUITES[name](config)
