"""Batch verification suites over the shipped testbeds.

Each suite runs one family of checks (theorem sweep, slice formulas,
boundary-cone condition, proof replay, the inequality batteries) across a
configured set of testbeds, flags and coefficient grids, and returns a
flat list of record dicts.  Records are pure data (rationals stay
Fractions until serialization) and carry a sortable "key" plus a "pass"
flag, so the CLI and the acceptance tests share one code path.

Sweep grids follow the verification defaults: body coefficients from
{1/2, 1, 3/2, 2, 3}, slice/replay parameters on a denominator-12 grid
(coarsened to denominator 4 on the three-folds, which fixes the set of
three-fold slice and replay records the acceptance runs check).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
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
from .okounkov import mu_endpoint_check, slice_formula_check
from .toric import AdmissibleFlag, Fan, FanError, TDivisor, flag_corresponds, mu, testbed

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
    "p1xp1": ((0, 2), (0, 2, 0, 1), (0, 1, 0, 2)),
    "p1xp1xp1": ((0, 2, 4), (0, 1, 0, 1, 0, 1), (0, 2, 0, 1, 0, 1)),
    "f1": ((1, 0), (0, 0, 1, 1), (0, 0, 1, 2)),      # 2H-E and 3H-E
    "blpq-p2": ((3, 0), (1, 1, 1, 1, 1), (2, 1, 1, 1, 1)),
}


@dataclass
class RunConfig:
    """Knobs shared by every suite; defaults match the acceptance runs."""

    testbeds: tuple = tuple(sorted(SWEEP_CONFIGS))
    grid_den: int = 12
    grid: tuple = DEFAULT_GRID
    seed: int = 2024
    cor15_count: int = 200
    lx_count: int = 100
    search_bound: int = 5
    extra_fans: dict = field(default_factory=dict)

    def fan(self, name: str) -> Fan:
        if name in self.extra_fans:
            return self.extra_fans[name]
        return testbed(name)

    def selected(self, catalog) -> list[str]:
        return [name for name in self.testbeds if name in catalog]


def _flag(fan: Fan, rays) -> AdmissibleFlag:
    return AdmissibleFlag(fan, tuple(rays))


def _div(fan: Fan, coeffs) -> TDivisor:
    return TDivisor(fan, tuple(coeffs))


def _grid_den_for(fan: Fan, config: RunConfig) -> int:
    # the three-folds keep the coarser grid that defines their slice and
    # replay record sets (a finer one multiplies the 3D replays per case)
    return min(config.grid_den, 4) if fan.dim >= 3 else config.grid_den


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
            if flag_corresponds(fan, flag, l_div)[0]:
                return [(order, l_div.coeffs, m_div.coeffs)]
    return []


def _sweep_specs(config: RunConfig, name: str):
    if name in SWEEP_CONFIGS:
        return SWEEP_CONFIGS[name]
    return auto_sweep_config(config.fan(name))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_additivity(config: RunConfig) -> list[dict]:
    records = []
    for name in config.testbeds:
        fan = config.fan(name)
        for flag_rays, lco, mco in _sweep_specs(config, name):
            flag = _flag(fan, flag_rays)
            cone = ConeCLM(_div(fan, lco), _div(fan, mco))
            pairs = theorem_sweep_pairs(cone, config.grid)
            for ((a1, b1), n1), ((a2, b2), n2) in pairs:
                verdict = check_additivity(n1, n2, flag)
                rec = {
                    "key": f"additivity/{name}/{flag.label()}/{a1},{b1}/{a2},{b2}",
                    "suite": "additivity", "testbed": name,
                    "flag": flag.ray_indices,
                    "pair": ((a1, b1), (a2, b2)),
                    "status": verdict.status,
                    "volumes": (verdict.vol_n1, verdict.vol_n2, verdict.vol_sum_body),
                    "pass": verdict.status == "equal",
                }
                if verdict.witness is not None:
                    rec["witness"] = verdict.witness
                    rec["violated"] = verdict.violated
                records.append(rec)
    return records


def suite_slices(config: RunConfig) -> list[dict]:
    records = []
    for name in config.selected(SLICE_CONFIGS):
        fan = config.fan(name)
        den = _grid_den_for(fan, config)
        for flag_rays, mco in SLICE_CONFIGS[name]:
            flag = _flag(fan, flag_rays)
            m_div = _div(fan, mco)
            if not fan.classes.is_ample(m_div.cls):
                raise ValueError(f"slice case {name}/{mco} is not ample")
            e_cls = flag.divisor_of_y1().cls
            endpoint = mu(fan, m_div, e_cls)
            case = f"slices/{name}/{flag.label()}/{','.join(map(str, mco))}"
            ok_mu = mu_endpoint_check(m_div, flag)
            records.append({"key": case + "/mu-endpoint", "suite": "slices",
                            "testbed": name, "check": "mu-endpoint",
                            "mu": endpoint, "pass": ok_mu})
            for k in range(0, ceil(endpoint * den)):
                t = Fraction(k, den)
                if t >= endpoint:
                    break
                shifted = m_div - flag.divisor_of_y1().scaled(t)
                if not fan.classes.is_ample(shifted.cls):
                    continue
                ok, witness = slice_formula_check(m_div, flag, t)
                rec = {"key": case + f"/t={t}", "suite": "slices",
                       "testbed": name, "check": "slice-formula",
                       "t": t, "pass": ok}
                if witness is not None:
                    rec["witness"] = witness
                records.append(rec)
    return records


def suite_replay(config: RunConfig) -> list[dict]:
    records = []
    for name in config.selected(REPLAY_CONFIGS):
        fan = config.fan(name)
        den = _grid_den_for(fan, config)
        for flag_rays, lco, mco, (a1, b1), (a2, b2) in REPLAY_CONFIGS[name]:
            flag = _flag(fan, flag_rays)
            cone = ConeCLM(_div(fan, lco), _div(fan, mco))
            n1 = cone.member(a1, b1)
            n2 = cone.member(a2, b2)
            endpoint = mu(fan, n1 + n2, flag.divisor_of_y1().cls)
            case = f"replay/{name}/{flag.label()}/{a1},{b1}/{a2},{b2}"
            seen_cases = set()
            for k in range(1, ceil(endpoint * den)):
                t = Fraction(k, den)
                if t >= endpoint:
                    break
                ok, trace = slice_decomposition_replay(n1, n2, flag, cone, t)
                seen_cases.add(trace["meta"]["case"])
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
    for name in config.testbeds:
        fan = config.fan(name)
        for flag_rays, lco, mco in _sweep_specs(config, name):
            flag = _flag(fan, flag_rays)
            cone = ConeCLM(_div(fan, lco), _div(fan, mco))
            pairs = theorem_sweep_pairs(cone, config.grid)
            for ((a1, b1), n1), ((a2, b2), n2) in pairs:
                rep = necessary_condition_check(
                    n1, n2, flag, grid_den=config.grid_den)
                records.append({
                    "key": f"prop14/{name}/{flag.label()}/{a1},{b1}/{a2},{b2}",
                    "suite": "prop14", "testbed": name,
                    "verdict": rep["verdict"],
                    "mu": (rep["mu_L"], rep["mu_M"], rep["mu_sum"]),
                    "pass": rep["ok"],
                })
    return records


def suite_cor13(config: RunConfig) -> list[dict]:
    records = []
    for name in config.selected({t: None for t in COR13_TESTBEDS}):
        fan = config.fan(name)
        flag_rays, lco, mco = SWEEP_CONFIGS[name][0]
        flag = _flag(fan, flag_rays)
        dmap = delta_map(_div(fan, lco), _div(fan, mco), flag)
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
    for name in config.selected(INJECTIVITY_PAIRS):
        fan = config.fan(name)
        flag_rays, lco, mco = INJECTIVITY_PAIRS[name]
        flag = _flag(fan, flag_rays)
        dmap = delta_map(_div(fan, lco), _div(fan, mco), flag)
        rec = injectivity_check(dmap)
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


def suite_lemma61(config: RunConfig) -> list[dict]:
    records = []
    rnd = random.Random(config.seed)
    for name in config.selected(LEMMA61_PAIRS):
        fan = config.fan(name)
        for flag_rays, lco, mco in LEMMA61_PAIRS[name]:
            flag = _flag(fan, flag_rays)
            rec = lemma61_check(_div(fan, lco), _div(fan, mco), flag)
            corr = rec.inputs["flag_corresponds_to"]
            ok = rec.passed and (corr is None or rec.slack == 0)
            records.append({
                "key": f"lemma61/{name}/{flag.label()}/"
                       f"{','.join(map(str, lco))}/{','.join(map(str, mco))}",
                "suite": "lemma61", "testbed": name,
                "lhs": rec.lhs, "rhs": rec.rhs, "slack": rec.slack,
                "corresponds": corr, "pass": ok,
            })
        # randomized ample pairs on the first flag of the testbed
        flag_rays, lco, mco = SWEEP_CONFIGS[name][0]
        flag = _flag(fan, flag_rays)
        cone = ConeCLM(_div(fan, lco), _div(fan, mco))
        grid_members = []
        for a in config.grid:
            for b in config.grid:
                n = cone.member(a, b)
                if fan.classes.is_ample(n.cls):
                    grid_members.append(n)
        for idx in range(min(16, len(grid_members) * (len(grid_members) - 1) // 2)):
            l_div = rnd.choice(grid_members)
            m_div = rnd.choice(grid_members)
            rec = lemma61_check(l_div, m_div, flag)
            corr = rec.inputs["flag_corresponds_to"]
            ok = rec.passed and (corr is None or rec.slack == 0)
            records.append({
                "key": f"lemma61/{name}/{flag.label()}/random-{idx}",
                "suite": "lemma61", "testbed": name,
                "lhs": rec.lhs, "rhs": rec.rhs, "slack": rec.slack,
                "corresponds": corr, "pass": ok,
            })
    return records


def suite_cor15(config: RunConfig) -> list[dict]:
    records = []
    tight_done = False
    for name in config.testbeds:
        fan = config.fan(name)
        if fan.dim < 2:
            continue
        results = cor15_sweep(fan, config.cor15_count, config.seed)
        for res in results:
            rec = res["direct"]
            records.append({
                "key": f"cor15/{name}/random-{res['index']:04d}",
                "suite": "cor15", "testbed": name, "seed": res["seed"],
                "lhs": rec.lhs, "rhs": rec.rhs, "slack": rec.slack,
                "proof_path": res["proof_path"] is not None,
                "pass": res["ok"],
            })
        if name == "p1xp1" and not tight_done:
            res = cor15_check(_div(fan, (0, 1, 0, 1)), _div(fan, (0, 1, 0, 0)),
                              _div(fan, (0, 0, 0, 1)))
            rec = res["direct"]
            records.append({
                "key": "cor15/p1xp1/tight-111-10-01", "suite": "cor15",
                "testbed": name, "lhs": rec.lhs, "rhs": rec.rhs,
                "slack": rec.slack,
                "proof_path": res["proof_path"] is not None,
                "pass": res["ok"] and rec.slack == 0
                        and res["proof_path"] is not None,
            })
            tight_done = True
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
        for rec in lehmann_xiao_sweep(dim, config.lx_count, config.seed + dim):
            records.append({
                "key": f"lx/d{dim}/triple-{rec.inputs['triple']:04d}/k{rec.inputs['k']}",
                "suite": "lx", "dim": dim, "k": rec.inputs["k"],
                "lhs": rec.lhs, "rhs": rec.rhs, "slack": rec.slack,
                "seed": rec.inputs["seed"], "pass": rec.passed,
            })
    for idx, (name, flag_rays, lco, mco) in enumerate(DERIVATIVE_PAIRS):
        if name not in config.testbeds:
            continue
        fan = config.fan(name)
        flag = _flag(fan, flag_rays)
        bl = nef_body(_div(fan, lco), flag)
        bm = nef_body(_div(fan, mco), flag)
        ok, info = derivative_check_bodies(bl.body, bm.body)
        records.append({
            "key": f"lx/derivative-{idx:02d}/{name}", "suite": "lx",
            "testbed": name, "coefficients": info["coefficients"],
            "pass": ok and bl.exact and bm.exact,
        })
    return records


def suite_strict_search(config: RunConfig, testbed_name: str,
                        flag_rays=None) -> list[dict]:
    fan = config.fan(testbed_name)
    if flag_rays is None:
        flag_rays = SWEEP_CONFIGS[testbed_name][0][0]
    flag = _flag(fan, tuple(flag_rays))
    outcome = strict_search(fan, flag, bound=config.search_bound)
    if outcome[0] == "strict":
        _, pair, verdict = outcome
        return [{
            "key": f"search/{testbed_name}/{flag.label()}",
            "suite": "search", "testbed": testbed_name,
            "outcome": "strict", "pair": pair,
            "witness": verdict.witness, "violated": verdict.violated,
            "pass": True,
        }]
    _, checked, bound = outcome
    return [{
        "key": f"search/{testbed_name}/{flag.label()}",
        "suite": "search", "testbed": testbed_name,
        "outcome": "none-found-within-bounds",
        "pairs_checked": checked, "bound": bound,
        "pass": True,
    }]


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
