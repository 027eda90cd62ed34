"""Command-line front end: bodies, verification sweeps, reports.

Commands
    body          compute one Newton-Okounkov body with its certificate
    verify        run a named check suite and emit a machine-readable report
    search-strict sweep ample pairs for a strict inclusion
    mu            the sup{s : M - s O(Y_1) big} endpoint
    intersect     intersection number of d nef divisors
    mixedvol      mixed volume of d rational polytopes

Reports are byte-deterministic for a fixed (config, seed): rationals are
emitted as [numerator, denominator] pairs (never floats), records are
sorted by key, and JSON uses sorted keys with fixed separators.  Exit
codes: 0 all checks passed, 1 check failures, 2 configuration error,
3 hard invariant violation (the one-sided inclusion failed, which means
the implementation itself is broken).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .additivity import InclusionViolationError
from .exactgeom import Polytope, mixed_volume
from .okounkov import NonBigClassError, no_body_rational
from .toric import (
    AdmissibleFlag,
    Fan,
    TDivisor,
    intersection_number,
    load_catalog_dir,
    mu,
    parse_rational,
    testbed,
    testbed_names,
)
from .verify import RunConfig, SWEEP_CONFIGS, run_suite, suite_strict_search

CATALOG_ENV = "OKLAB_CATALOG"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def encode(value):
    """Exact JSON encoding: Fractions become [num, den], never floats."""
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if isinstance(value, Polytope):
        return value.to_json()
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if hasattr(value, "to_json"):
        return value.to_json()
    raise TypeError(f"cannot encode {type(value).__name__} exactly")


def rational_str(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 \
            else str(value.numerator)
    return str(value)


def make_report(command: str, config_echo: dict, records: list[dict]) -> dict:
    records = sorted(records, key=lambda r: r["key"])
    failures = [r["key"] for r in records if not r.get("pass", True)]
    return {
        "tool": {"name": "oklab", "version": __version__},
        "command": command,
        "config": config_echo,
        "checks": records,
        "summary": {
            "total": len(records),
            "passed": len(records) - len(failures),
            "failed": len(failures),
            "failing_keys": failures,
        },
    }


def emit(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(encode(report), sort_keys=True,
                          separators=(",", ":")) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "suite", "testbed", "pass", "lhs", "rhs",
                         "slack", "detail"])
        for rec in report["checks"]:
            detail = {k: v for k, v in rec.items()
                      if k not in ("key", "suite", "testbed", "pass",
                                   "lhs", "rhs", "slack")}
            writer.writerow([
                rec["key"], rec.get("suite", ""), rec.get("testbed", ""),
                "pass" if rec.get("pass", True) else "FAIL",
                rational_str(rec.get("lhs", "")),
                rational_str(rec.get("rhs", "")),
                rational_str(rec.get("slack", "")),
                json.dumps(encode(detail), sort_keys=True),
            ])
        text = buf.getvalue()
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oklab",
        description="Exact Newton-Okounkov bodies, mixed volumes and "
                    "intersection-number checks on toric testbeds.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--testbed", help="testbed name (built-in or catalog)")
        p.add_argument("--flag", help="flag as cone:i,j,... (ordered ray indices)")
        p.add_argument("--grid-den", type=int, default=12,
                       help="denominator bound for parameter grids")
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--catalog",
                       default=os.environ.get(CATALOG_ENV),
                       help="directory of extra testbed JSON files "
                            f"(default ${CATALOG_ENV})")

    p = sub.add_parser("body", help="Newton-Okounkov body of a divisor class")
    common(p)
    p.add_argument("--class", dest="divisor", required=True,
                   help="ray coefficients, e.g. 1,0,0 or 3/2,0 (curves: degree)")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", required=True,
                   choices=("additivity", "slices", "replay", "prop14",
                            "cor13", "lemma61", "cor15", "lx", "all"))

    p = sub.add_parser("search-strict", help="sweep ample pairs for strictness")
    common(p)
    p.add_argument("--bound", type=int, default=5,
                   help="class-coordinate bound of the sweep grid")

    p = sub.add_parser("mu", help="endpoint sup{s : M - s O(Y1) big}")
    common(p)
    p.add_argument("--class", dest="divisor", required=True)

    p = sub.add_parser("intersect", help="intersection number of nef divisors")
    common(p)
    p.add_argument("--classes", required=True,
                   help="d divisors separated by ';', e.g. 0,1,0,1;0,1,0,0")

    p = sub.add_parser("mixedvol", help="mixed volume of d polytopes")
    common(p)
    p.add_argument("--bodies", required=True,
                   help="JSON list of vertex lists (rationals as [n,d] pairs)"
                        " or @file")
    return parser


def _load_fans(args) -> dict[str, Fan]:
    fans = {name: testbed(name) for name in testbed_names()}
    if not args.catalog:
        return fans
    # FanError and json.JSONDecodeError are ValueErrors
    try:
        extra = load_catalog_dir(args.catalog)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"bad catalog {args.catalog!r}: {exc}") from exc
    shadowed = sorted(set(extra) & set(fans))
    if shadowed:
        raise ConfigError(f"catalog names shadow built-in testbeds: {', '.join(shadowed)}")
    fans.update(extra)
    return fans


def _pick_fan(args, fans) -> Fan:
    if not args.testbed:
        raise ConfigError("--testbed is required for this command")
    if args.testbed not in fans:
        raise ConfigError(f"unknown testbed {args.testbed!r}; "
                          f"known: {', '.join(sorted(fans))}")
    return fans[args.testbed]


def _parse_flag(fan: Fan, text: str | None) -> AdmissibleFlag:
    if text is None:
        return AdmissibleFlag(fan, fan.max_cones[0])
    try:
        if text.lstrip().startswith("{"):
            rays = tuple(int(x) for x in json.loads(text)["cone"])
        elif text.startswith("cone:"):
            rays = tuple(int(x) for x in text[len("cone:"):].split(","))
        else:
            raise ValueError("expected cone:i,j or a {\"cone\": [...]} object")
        return AdmissibleFlag(fan, rays)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad flag {text!r}: {exc}") from exc


def _parse_divisor(fan: Fan, text: str) -> TDivisor:
    try:
        if text.lstrip().startswith("{"):
            parts = json.loads(text)["coeffs"]
        else:
            parts = [p for p in text.split(",") if p != ""]
        coeffs = [parse_rational(p) for p in parts]
    except (ValueError, KeyError, ZeroDivisionError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad divisor {text!r}: {exc}") from exc
    if fan.dim == 1 and len(coeffs) == 1:
        coeffs = [Fraction(0), coeffs[0]]  # curve shorthand: a degree
    if len(coeffs) != len(fan.rays):
        raise ConfigError(
            f"{fan.name} has {len(fan.rays)} rays, got {len(coeffs)} coefficients")
    return TDivisor(fan, tuple(coeffs))


def _config_echo(args, extra=None) -> dict:
    echo = {
        "testbed": getattr(args, "testbed", None),
        "flag": getattr(args, "flag", None),
        "grid_den": args.grid_den,
        "seed": args.seed,
        "format": args.format,
    }
    if extra:
        echo.update(extra)
    return echo


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_body(args, fans) -> int:
    fan = _pick_fan(args, fans)
    flag = _parse_flag(fan, args.flag)
    divisor = _parse_divisor(fan, args.divisor)
    try:
        nb = no_body_rational(divisor, flag)
    except NonBigClassError as exc:
        raise ConfigError(str(exc)) from exc
    record = {
        "key": f"body/{fan.name}/{flag.label()}/{args.divisor}",
        "suite": "body", "testbed": fan.name,
        "body": nb.to_json(), "pass": nb.exact,
    }
    report = make_report("body", _config_echo(args, {"class": args.divisor}),
                         [record])
    emit(report, args.format, args.out)
    return 0 if nb.exact else 1


def cmd_verify(args, fans) -> int:
    config = RunConfig(grid_den=args.grid_den, seed=args.seed)
    if args.testbed:
        if args.testbed not in fans:
            raise ConfigError(f"unknown testbed {args.testbed!r}")
        config = RunConfig(testbeds=(args.testbed,),
                           grid_den=args.grid_den, seed=args.seed,
                           extra_fans={args.testbed: fans[args.testbed]})
    records = run_suite(args.suite, config)
    report = make_report("verify", _config_echo(args, {"suite": args.suite}),
                         records)
    emit(report, args.format, args.out)
    return 0 if report["summary"]["failed"] == 0 else 1


def cmd_search_strict(args, fans) -> int:
    fan = _pick_fan(args, fans)
    config = RunConfig(grid_den=args.grid_den, seed=args.seed,
                       search_bound=args.bound,
                       extra_fans={fan.name: fan})
    flag_rays = None
    if args.flag:
        flag_rays = _parse_flag(fan, args.flag).ray_indices
    elif fan.name not in SWEEP_CONFIGS:
        flag_rays = fan.max_cones[0]
    records = suite_strict_search(config, fan.name, flag_rays)
    report = make_report("search-strict", _config_echo(args), records)
    emit(report, args.format, args.out)
    return 0


def cmd_mu(args, fans) -> int:
    fan = _pick_fan(args, fans)
    flag = _parse_flag(fan, args.flag)
    divisor = _parse_divisor(fan, args.divisor)
    try:
        value = mu(fan, divisor, flag.divisor_of_y1().cls)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    record = {"key": f"mu/{fan.name}/{flag.label()}/{args.divisor}",
              "suite": "mu", "testbed": fan.name, "mu": value, "pass": True}
    report = make_report("mu", _config_echo(args, {"class": args.divisor}),
                         [record])
    emit(report, args.format, args.out)
    return 0


def cmd_intersect(args, fans) -> int:
    fan = _pick_fan(args, fans)
    divisors = [_parse_divisor(fan, part)
                for part in args.classes.split(";") if part]
    try:
        value = intersection_number(fan, divisors)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    record = {"key": f"intersect/{fan.name}/{args.classes}",
              "suite": "intersect", "testbed": fan.name,
              "value": value, "pass": True}
    report = make_report("intersect",
                         _config_echo(args, {"classes": args.classes}),
                         [record])
    emit(report, args.format, args.out)
    return 0


def cmd_mixedvol(args, fans) -> int:
    text = args.bodies
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    try:
        data = json.loads(text)
        bodies = [Polytope.hull([[parse_rational(x) for x in v] for v in verts])
                  for verts in data]
        value = mixed_volume(bodies)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad bodies: {exc}") from exc
    record = {"key": "mixedvol", "suite": "mixedvol", "value": value,
              "pass": True}
    report = make_report("mixedvol", _config_echo(args), [record])
    emit(report, args.format, args.out)
    return 0


COMMANDS = {
    "body": cmd_body,
    "verify": cmd_verify,
    "search-strict": cmd_search_strict,
    "mu": cmd_mu,
    "intersect": cmd_intersect,
    "mixedvol": cmd_mixedvol,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.grid_den < 1:
            raise ConfigError("--grid-den must be positive")
        fans = _load_fans(args)
        return COMMANDS[args.command](args, fans)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InclusionViolationError as exc:
        print(f"hard invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
