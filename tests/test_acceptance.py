"""Acceptance battery: one test (and one printed line) per criterion.

Everything here is exact rational arithmetic; there are no tolerances to
tune.  Suites are shared with the CLI (`oklab verify --suite ...`), so a
criterion failing here fails there identically.
"""

from fractions import Fraction as F
from itertools import product
from math import factorial

import pytest

from oklab.additivity import ample_grid_classes, compare_additive_bodies
from oklab.exactgeom import Polytope, minkowski_sum
from oklab.okounkov import no_body_rational
from oklab.toric import AdmissibleFlag, TDivisor, intersection_number, testbed
from oklab.verify import (
    RunConfig,
    SWEEP_CONFIGS,
    run_suite,
    suite_strict_search,
)

CONFIG = RunConfig()


def report(num, text, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def additivity_records():
    return run_suite("additivity", CONFIG)


def test_criterion_01_curve_base_case():
    p1 = testbed("p1")
    flag = AdmissibleFlag(p1, (0,))
    ok = True
    for q in (F(1, 2), 1, 2, 3):
        nb = no_body_rational(TDivisor(p1, (0, q)), flag)
        ok = ok and nb.exact and nb.body.vertices == ((F(0),), (F(q),))
    report(1, "curve bodies are the segments [0, q] for q in {1/2,1,2,3}", ok)


def test_criterion_02_volume_identity():
    checked = 0
    ok = True
    for name in sorted(SWEEP_CONFIGS):
        fan = testbed(name)
        flag = AdmissibleFlag(fan, SWEEP_CONFIGS[name][0][0])
        classes_seen = {}
        for coeffs in product((1, 2, 3, 4), repeat=len(fan.rays)):
            div = TDivisor(fan, coeffs)
            cls = div.cls
            if cls in classes_seen:
                continue
            classes_seen[cls] = True
            if not (fan.classes.is_nef(cls) and fan.classes.is_big(cls)):
                continue
            nb = no_body_rational(div, flag)
            top = intersection_number(fan, [div] * fan.dim)
            ok = ok and nb.exact and \
                factorial(fan.dim) * nb.body.volume() == top
            checked += 1
    ok = ok and checked >= 50
    report(2, f"d! vol(body) = D^d for {checked} nef big classes "
              "(coefficients 1..4, all testbeds)", ok)


def test_criterion_03_theorem_sweep(additivity_records):
    records = additivity_records
    ok = len(records) >= 100 and all(r["pass"] for r in records)
    report(3, f"additivity holds exactly for all {len(records)} grid pairs "
              "in the corresponding-flag cones", ok)


def test_criterion_04_inclusion_never_fails():
    # the one-sided inclusion is enforced (raises) inside every additivity
    # verdict; exercise it explicitly on ample pairs sharing no C_L(M) cone
    bl = testbed("blpq-p2")
    flag = AdmissibleFlag(bl, (3, 0))
    classes = ample_grid_classes(bl, bound=4)[:6]
    count = 0
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            d1 = bl.classes.divisor_from_class(classes[i])
            d2 = bl.classes.divisor_from_class(classes[j])
            b1 = no_body_rational(d1, flag).body
            b2 = no_body_rational(d2, flag).body
            b12 = no_body_rational(d1 + d2, flag).body
            compare_additive_bodies(b1, b2, b12)  # raises on violation
            assert b12.contains(minkowski_sum(b1, b2))
            count += 1
    report(4, f"Minkowski-sum inclusion held on all checked pairs "
              f"(incl. {count} cross-cone pairs)", count > 0)


def test_criterion_05_slice_formula():
    records = run_suite("slices", CONFIG)
    cases = [r for r in records if r["check"] == "mu-endpoint"]
    slices = [r for r in records if r["check"] == "slice-formula"]
    ok = (len(cases) >= 20 and all(r["pass"] for r in records)
          and len(slices) >= len(cases))
    report(5, f"slice formula and endpoint agree on {len(cases)} (M, flag) "
              f"cases ({len(slices)} slice parameters)", ok)


def test_criterion_06_proof_replay():
    records = run_suite("replay", CONFIG)
    pairs = {r["key"].split("/t=")[0] for r in records}
    cases = {r["case"] for r in records}
    positive_t0 = any(r["t0"] > 0 for r in records)
    ok = (all(r["pass"] for r in records) and len(pairs) >= 10
          and cases == {"t>=t0", "t<t0"} and positive_t0)
    report(6, f"slice decomposition replays exactly on {len(pairs)} configured "
              f"pairs ({len(records)} parameter points), both regimes covered", ok)


def test_criterion_07_necessary_condition():
    records = run_suite("prop14", CONFIG)
    ok = all(r["pass"] for r in records) and len(records) >= 100
    report(7, f"endpoint additivity and boundary segments verified on "
              f"{len(records)} additive pairs", ok)


def test_criterion_08_linear_map():
    records = run_suite("cor13", CONFIG)
    by_key = {r["key"]: r for r in records}
    ok = all(r["pass"] for r in records)
    for name, dim in (("p2", 2), ("p1xp1", 2), ("p1xp1xp1", 3)):
        for k in range(dim + 1):
            ok = ok and f"cor13/{name}/multidegree-k{k}" in by_key
    inj = [r for r in records if r["key"].endswith("injectivity")]
    ok = ok and len(inj) == 4
    frozen = by_key.get("cor13/p1xp1/injectivity")
    ok = ok and frozen is not None and (frozen["lhs"], frozen["rhs"]) == (16, 18)
    report(8, "intersection compatibility on all multidegree tuples and "
              "strict Brunn-Minkowski (18 vs 16) on all rank >= 2 testbeds", ok)


def test_criterion_09_mixed_volume_bound():
    records = run_suite("lemma61", CONFIG)
    ok = all(r["pass"] for r in records) and len(records) >= 100
    corr = [r for r in records if r["corresponds"]]
    ok = ok and corr and all(r["slack"] == 0 for r in corr)
    closed = next(r for r in records
                  if r["key"].startswith("lemma61/p1xp1/cone:0,2/0,3,0,5"))
    ok = ok and closed["lhs"] == F(5, 2)
    report(9, f"mixed-volume bound holds on {len(records)} pairs; tight on "
              f"all {len(corr)} corresponding flags (incl. b/2 closed form)", ok)


def test_criterion_10_nef_inequality():
    records = run_suite("cor15", CONFIG)
    per_testbed = {}
    for r in records:
        per_testbed.setdefault(r["testbed"], []).append(r)
    ok = all(r["pass"] for r in records)
    for name, recs in per_testbed.items():
        ok = ok and len(recs) >= 200
    tight = next(r for r in records if r["key"] == "cor15/p1xp1/tight-111-10-01")
    ok = ok and tight["slack"] == 0 and tight["proof_path"]
    report(10, f"nef intersection inequality on {len(records)} triples "
               f"across {len(per_testbed)} testbeds, tight case exact", ok)


def test_criterion_11_convex_body_inequality():
    records = run_suite("lx", CONFIG)
    ok = all(r["pass"] for r in records)
    triples = {r["key"].rsplit("/", 1)[0] for r in records if r["suite"] == "lx"
               and "triple" in r["key"]}
    ok = ok and len(triples) >= 200
    for dim in (2, 3):
        ks = {r["k"] for r in records if r.get("dim") == dim}
        ok = ok and ks == set(range(dim + 1))
    derivative = [r for r in records if "derivative" in r["key"]]
    ok = ok and len(derivative) >= 10
    report(11, f"convex-body inequality on {len(triples)} random triples "
               f"(every k), derivative identity on {len(derivative)} pairs", ok)


def test_criterion_12_strict_search():
    bl = testbed("blpq-p2")
    flag = AdmissibleFlag(bl, SWEEP_CONFIGS["blpq-p2"][0][0])
    rec_bl = suite_strict_search(flag)[0]
    ok = rec_bl["outcome"] in ("strict", "none-found-within-bounds")
    if rec_bl["outcome"] == "strict":
        # re-validate the witness independently of the search path
        c1, c2 = rec_bl["pair"]
        d1 = bl.classes.divisor_from_class(c1)
        d2 = bl.classes.divisor_from_class(c2)
        msum = minkowski_sum(no_body_rational(d1, flag).body,
                             no_body_rational(d2, flag).body)
        ok = ok and not msum.contains(Polytope.hull([rec_bl["witness"]]))
    for name in ("p2", "p1xp1"):
        flag = AdmissibleFlag(testbed(name), SWEEP_CONFIGS[name][0][0])
        rec = suite_strict_search(flag)[0]
        ok = ok and rec["outcome"] == "none-found-within-bounds"
    report(12, f"strict search: blpq-p2 -> {rec_bl['outcome']}; "
               "p2 and p1xp1 certified additive within bounds", ok)
