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
3 hard invariant violation (the one-sided inclusion failed, or a nef body
failed its d! vol = D^d certificate, which means the implementation
itself is broken).  A sweep that would enumerate more than
`exactgeom.ENUMERATION_BUDGET` points, counted as the comment there says, is
a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .additivity import InclusionViolationError
from .exactgeom import EnumerationBudgetError, Polytope, check_enumeration, mixed_volume
from .okounkov import CertificateError, NonBigClassError, no_body_rational
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
from .verify import RunConfig, SUITES, SWEEP_CONFIGS, run_suite, suite_strict_search

CATALOG_ENV = "OKLAB_CATALOG"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def json_default(value):
    """The `json.dumps` hook for what JSON has no type for: Fractions become
    [num, den], never floats, and bodies their `to_json()`."""
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if hasattr(value, "to_json"):
        return value.to_json()
    raise TypeError(f"cannot encode {type(value).__name__} exactly")


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
        text = json.dumps(report, default=json_default, sort_keys=True,
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
                rec.get("lhs", ""), rec.get("rhs", ""), rec.get("slack", ""),  # str(): "n/d"
                json.dumps(detail, default=json_default, sort_keys=True),
            ])
        text = buf.getvalue()
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: its options
    hold no environment, so it can serve every `main` call."""
    parser = argparse.ArgumentParser(
        prog="oklab",
        description="Exact Newton-Okounkov bodies, mixed volumes and "
                    "intersection-number checks on toric testbeds.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text, testbed="required", flag=False):
        """A subcommand with the options `run` reads: the fan (--testbed,
        --catalog) unless testbed is None, --flag if asked, the output."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        if testbed:
            p.add_argument("--testbed", required=testbed == "required",
                           help="testbed name (built-in or catalog)")
            p.add_argument("--catalog",
                           help="directory of extra testbed JSON files "
                                f"(default ${CATALOG_ENV})")
        if flag:
            p.add_argument("--flag", help="flag as cone:i,j,... (ordered ray indices)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    p = command("body", cmd_body, "Newton-Okounkov body of a divisor class", flag=True)
    p.add_argument("--class", dest="divisor", required=True,
                   help="ray coefficients, e.g. 1,0,0 or 3/2,0 (curves: degree)")

    p = command("verify", cmd_verify, "run a verification suite", testbed="optional")
    p.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    p.add_argument("--grid-den", type=int, default=12,
                   help="denominator bound for parameter grids")
    p.add_argument("--seed", type=int, default=2024)

    p = command("search-strict", cmd_search_strict, "sweep ample pairs for strictness",
                flag=True)
    p.add_argument("--bound", type=int, default=5,
                   help="class-coordinate bound of the sweep grid")

    p = command("mu", cmd_mu, "endpoint sup{s : M - s O(Y1) big}", flag=True)
    p.add_argument("--class", dest="divisor", required=True)

    p = command("intersect", cmd_intersect, "intersection number of nef divisors")
    p.add_argument("--classes", required=True,
                   help="d divisors separated by ';', e.g. 0,1,0,1;0,1,0,0")

    p = command("mixedvol", cmd_mixedvol, "mixed volume of d polytopes", testbed=None)
    p.add_argument("--bodies", required=True,
                   help="JSON list of vertex lists (rationals as [n,d] pairs)"
                        " or @file")
    return parser


def _attach_signed_values(argv) -> list[str]:
    """`--class -1,2,0` -> `--class=-1,2,0`, which argparse would otherwise
    read as an option."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--class", "--classes") \
                and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _load_catalog(args) -> dict[str, Fan]:
    """The fans of --catalog, else of $OKLAB_CATALOG as it reads at this
    call (none without either; an empty --catalog means none), whose names
    must be new."""
    path = os.environ.get(CATALOG_ENV) if args.catalog is None else args.catalog
    if not path:
        return {}
    # FanError and json.JSONDecodeError are ValueErrors
    try:
        catalog = load_catalog_dir(path)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"bad catalog {path!r}: {exc}") from exc
    shadowed = sorted(set(catalog) & set(testbed_names()))
    if shadowed:
        raise ConfigError(f"catalog names shadow built-in testbeds: {', '.join(shadowed)}")
    return catalog


def _pick_fan(args, catalog) -> Fan:
    """The fan --testbed names; only that one built-in testbed is built."""
    if args.testbed in catalog:
        return catalog[args.testbed]
    if args.testbed not in testbed_names():
        raise ConfigError(f"unknown testbed {args.testbed!r}; "
                          f"known: {', '.join(sorted([*testbed_names(), *catalog]))}")
    return testbed(args.testbed)


def _parse_flag(fan: Fan, text: str | None) -> AdmissibleFlag:
    if text is None:
        return AdmissibleFlag(fan, fan.max_cones[0])
    try:
        if text.lstrip().startswith("{"):
            rays = tuple(json.loads(text)["cone"])  # AdmissibleFlag refuses non-ints
        elif text.startswith("cone:"):
            rays = tuple(int(x) for x in text[len("cone:"):].split(","))
        else:
            raise ValueError("expected cone:i,j or a {\"cone\": [...]} object")
        return AdmissibleFlag(fan, rays)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad flag {text!r}: {exc}") from exc


def _coefficient(p):
    """An int for a JSON integer or a decimal token with at most one sign, which Fraction()
    reads as the same integer, so an integer class stays on ints; else `parse_rational`."""
    digits = p.strip() if type(p) is str else ""
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    return int(p) if type(p) is int or digits.isdecimal() else parse_rational(p)


def _parse_divisor(fan: Fan, text: str) -> TDivisor:
    try:
        if text.lstrip().startswith("{"):
            parts = json.loads(text)["coeffs"]
        else:
            parts = [p for p in text.split(",") if p != ""]
        coeffs = [_coefficient(p) for p in parts]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad divisor {text!r}: {exc}") from exc
    if fan.dim == 1 and len(coeffs) == 1:
        coeffs = [0, coeffs[0]]  # curve shorthand: a degree
    if len(coeffs) != len(fan.rays):
        raise ConfigError(
            f"{fan.name} has {len(fan.rays)} rays, got {len(coeffs)} coefficients")
    return TDivisor(fan, tuple(coeffs))


def _config_echo(args, extra=None) -> dict:
    echo = {key: getattr(args, key, None)
            for key in ("testbed", "flag", "grid_den", "seed", "format")}
    if extra:
        echo.update(extra)
    return echo


# ---------------------------------------------------------------------------
# commands: each returns its records and the config entries it adds
# ---------------------------------------------------------------------------

def cmd_body(args, catalog):
    fan = _pick_fan(args, catalog)
    flag = _parse_flag(fan, args.flag)
    divisor = _parse_divisor(fan, args.divisor)
    try:
        nb = no_body_rational(divisor, flag)
    except NonBigClassError as exc:
        raise ConfigError(str(exc)) from exc
    return [{"key": f"body/{fan.name}/{flag.label()}/{args.divisor}",
             "suite": "body", "testbed": fan.name,
             "body": {**nb.body.to_json(), "flag": list(flag.ray_indices),
                      "class": list(divisor.cls), "exact": nb.exact},
             "pass": nb.exact}], {"class": args.divisor}


def cmd_verify(args, catalog):
    if args.grid_den < 1:
        raise ConfigError("--grid-den must be positive")
    check_enumeration(args.grid_den + 1, "--grid-den")
    fans = ({args.testbed: _pick_fan(args, catalog)} if args.testbed
            else {**{name: testbed(name) for name in testbed_names()}, **catalog})
    return run_suite(args.suite, RunConfig(fans=fans, grid_den=args.grid_den,
                                           seed=args.seed)), {"suite": args.suite}


def cmd_search_strict(args, catalog):
    if args.bound < 1:
        raise ConfigError("--bound must be positive")
    fan = _pick_fan(args, catalog)
    if args.flag is None and fan.name in SWEEP_CONFIGS:
        flag = AdmissibleFlag(fan, SWEEP_CONFIGS[fan.name][0][0])
    else:
        flag = _parse_flag(fan, args.flag)
    return suite_strict_search(flag, args.bound), None


def cmd_mu(args, catalog):
    fan = _pick_fan(args, catalog)
    flag = _parse_flag(fan, args.flag)
    divisor = _parse_divisor(fan, args.divisor)
    try:
        value = mu(fan, divisor, flag.divisor_of_y1())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ([{"key": f"mu/{fan.name}/{flag.label()}/{args.divisor}", "suite": "mu",
              "testbed": fan.name, "mu": value, "pass": True}], {"class": args.divisor})


def cmd_intersect(args, catalog):
    fan = _pick_fan(args, catalog)
    divisors = [_parse_divisor(fan, part)
                for part in args.classes.split(";") if part]
    try:
        value = intersection_number(fan, divisors)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return [{"key": f"intersect/{fan.name}/{args.classes}",
             "suite": "intersect", "testbed": fan.name,
             "value": value, "pass": True}], {"classes": args.classes}


def cmd_mixedvol(args, catalog):
    text = args.bodies
    try:
        if text.startswith("@"):
            with open(text[1:]) as fh:
                text = fh.read()
        data = json.loads(text)
        bodies = [Polytope.hull([[parse_rational(x) for x in v] for v in verts])
                  for verts in data]
        value = mixed_volume(bodies)
    except EnumerationBudgetError:
        raise
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad bodies: {exc}") from exc
    return [{"key": "mixedvol", "suite": "mixedvol", "value": value, "pass": True}], None


def main(argv=None) -> int:
    """Run one command; the exit code is described in the module docstring.
    The argument parser is built once per process, on the first call."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_signed_values(argv))
    try:
        catalog = _load_catalog(args) if "catalog" in vars(args) else None
        records, extra = args.run(args, catalog)
        report = make_report(args.command, _config_echo(args, extra), records)
        emit(report, args.format, args.out)
        return 0 if report["summary"]["failed"] == 0 else 1
    except (ConfigError, EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InclusionViolationError, CertificateError) as exc:
        print(f"hard invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
