"""Command-line interface: quantile, classify, curve, and verify.

All commands read mixture documents (JSON) as described in
``serialization``.  Output is deterministic byte-for-byte for a fixed
invocation: text mode prints aligned key/value lines, machine mode prints
one JSON document with sorted keys and exact number strings.

Exit codes: 0 success, 1 verification failures, 2 unreadable or malformed
spec, 3 domain error (levels, counts or results out of range), 4 internal
contradiction (an infeasible case-table label), 5 unwritable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .classify import InternalContradictionError
from .distributions import DomainError, _ratio_sum
from .mixture import MixtureSpec, _mix_levels, direct_quantile
from .serialization import (
    SpecParseError,
    extended_to_string,
    parse_exact_number,
    parse_mixture,
)
from .split import split_quantile
from .verification import InstanceGenConfig, run_suite
from .classify import classify

__all__ = ["main", "entry", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_DOMAIN_ERROR = 3
EXIT_CONTRADICTION = 4
EXIT_UNWRITABLE = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixquant",
        description="Exact quantiles of two-component Bernoulli mixtures.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="text (default) or machine-readable JSON output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("quantile", help="mixture quantile via the optimal split")
    cmd.add_argument("--spec", required=True, help="path to a mixture document")
    cmd.add_argument("--p", required=True, help="level in (0, 1), exact decimal")

    cmd = sub.add_parser("classify", help="case-table cell of an instance")
    cmd.add_argument("--spec", required=True, help="path to a mixture document")
    cmd.add_argument("--p", required=True, help="level in (0, 1), exact decimal")

    cmd = sub.add_parser("curve", help="tabulate the CDFs and their inverses")
    cmd.add_argument("--spec", required=True, help="path to a mixture document")
    cmd.add_argument("--from", dest="lo", required=True, help="left end of the x grid")
    cmd.add_argument("--to", dest="hi", required=True, help="right end of the x grid")
    cmd.add_argument("--steps", type=int, required=True, help="grid points (>= 2)")
    cmd.add_argument("--out", required=True, help="output path for the tables")

    cmd = sub.add_parser("verify", help="cross-check randomized instances")
    cmd.add_argument("--count", type=int, required=True, help="number of instances")
    cmd.add_argument("--seed", type=int, required=True, help="generator seed")
    cmd.add_argument("--jobs", type=int, default=1, help="parallel workers")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: ``parse_args`` keeps no state between calls."""
    return build_parser()


def _load_mixture(path: str) -> MixtureSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpecParseError(f"cannot read spec {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"spec {path} is not valid JSON: {exc}") from None
    return parse_mixture(doc)


def _parse_level(text: str) -> Fraction:
    return parse_exact_number(text, "level p")


def _emit(args, text_lines, machine_doc) -> None:
    if args.format == "machine":
        print(json.dumps(machine_doc, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _cmd_quantile(args) -> int:
    m = _load_mixture(args.spec)
    sol = split_quantile(m, _parse_level(args.p))
    fields = [
        ("s_p", extended_to_string(sol.s_p)),
        ("alpha_star", extended_to_string(sol.alpha_star)),
        ("beta_star", extended_to_string(sol.beta_star)),
        ("x_attains", sol.x_attains),
        ("y_attains", sol.y_attains),
        ("clamped", sol.clamped),
    ]
    text = [
        f"{name} = {str(value).lower() if isinstance(value, bool) else value}"
        for name, value in fields
    ]
    _emit(args, text, dict(fields))
    return EXIT_OK


def _cmd_classify(args) -> int:
    m = _load_mixture(args.spec)
    p = _parse_level(args.p)
    report = classify(m, p)
    text = [
        f"cell = {report.label.cell_id}",
        f"s_p = {extended_to_string(report.s_p)}",
        "f_flat_witness = "
        + ("none" if report.f_flat_witness is None else extended_to_string(report.f_flat_witness)),
        "g_flat_witness = "
        + ("none" if report.g_flat_witness is None else extended_to_string(report.g_flat_witness)),
    ]
    for check in report.relations_checked:
        text.append(f"relation {check.relation}: {'ok' if check.holds else 'FAIL'}")
    _emit(args, text, report.to_dict())
    return EXIT_OK


def _cmd_curve(args) -> int:
    m = _load_mixture(args.spec)
    lo = parse_exact_number(args.lo, "--from")
    hi = parse_exact_number(args.hi, "--to")
    steps = args.steps
    if steps < 2:
        raise DomainError(f"curve needs at least 2 steps, got {steps}")
    if not lo < hi:
        raise DomainError(f"curve needs --from < --to, got [{lo}, {hi}]")

    rows = ["x,F,G,FS"]
    # The grid point lo + (hi - lo) * i/(steps - 1), on integers.
    ln, ld = lo.numerator, lo.denominator
    width, den = hi.numerator * ld - ln * hi.denominator, hi.denominator * ld * (steps - 1)
    for i in range(steps):
        x = _ratio_sum(ln, ld, width * i, den)[0]
        f, g = m.x.cdf(x), m.y.cdf(x)
        rows.append(",".join(map(extended_to_string, (x, f, g, _mix_levels(m.q, f, g)))))
    rows.append("")
    rows.append("p,Qx,Qy,QS")
    for j in range(1, steps + 1):
        p = Fraction(j, steps + 1)
        rows.append(
            ",".join(
                (
                    extended_to_string(p),
                    extended_to_string(m.x.quantile(p)),
                    extended_to_string(m.y.quantile(p)),
                    extended_to_string(direct_quantile(m, p)),
                )
            )
        )
    payload = "\n".join(rows) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    if args.format == "machine":
        print(json.dumps({"out": args.out, "rows": 2 * steps + 2}, sort_keys=True))
    else:
        print(f"wrote {args.out} ({steps} x-rows, {steps} p-rows)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.count < 1:
        raise DomainError(f"--count must be positive, got {args.count}")
    if args.jobs < 1:
        raise DomainError(f"--jobs must be positive, got {args.jobs}")
    cfg = InstanceGenConfig(seed=args.seed)
    result = run_suite(cfg, args.count, jobs=args.jobs)
    if args.format == "machine":
        doc = {
            "count": result.count,
            "census": dict(sorted(result.census.items())),
            "failures": [[index, list(msgs)] for index, msgs in result.failures],
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for line in result.lines:
            print(line)
        print("census:")
        for cell, count in sorted(result.census.items()):
            print(f"  {cell} {count}")
        print(f"failures: {len(result.failures)}")
        for index, msgs in result.failures:
            print(f"  [{index:05d}] " + "; ".join(msgs))
    return EXIT_OK if result.passed else EXIT_VERIFY_FAILED


_COMMANDS = {
    "quantile": _cmd_quantile,
    "classify": _cmd_classify,
    "curve": _cmd_curve,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except InternalContradictionError as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
