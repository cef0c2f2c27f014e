"""Command-line front end.

One subcommand per library operation; results print as short text by
default or as a JSON document with --format json.  Exit codes: 0 on
success, 2 on any input or parse error, 3 when a mathematical
hypothesis is violated (the weight is identically -infinity on the
chosen hyperplane), 4 when an oracle verdict is Inconclusive under
--strict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import List, Optional, Sequence

from . import __version__
from .lp import HypothesisError, InputError
from . import ideals, oracle, parsing, toric


def _styled(text: str, stream) -> str:
    if os.environ.get("NIL_NO_COLOR") or not getattr(stream, "isatty",
                                                     lambda: False)():
        return text
    return f"\x1b[1m{text}\x1b[0m"


def _rat(value) -> str:
    return parsing.format_rational(value)


def _csv_rationals(text: str) -> List[Fraction]:
    return [parsing.parse_rational(part) for part in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nil",
        description="Exact multiplier and adjoint ideal calculator for "
                    "monomial ideals and toric weights.")
    parser.add_argument("--version", action="version",
                        version=f"nil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, ideal=False, toric_fn=False, c=False, axis=False,
               oracle_cfg=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--input", metavar="FILE",
                       help="JSON problem file; explicit flags win")
        p.add_argument("--vars", help="comma-separated variable names")
        if ideal:
            p.add_argument("--ideal", help='e.g. "x^2, y^3"; 1 = unit, '
                                           "0 = zero ideal")
        if toric_fn:
            p.add_argument("--toric", help='e.g. "min(2*x, 3*y)" or '
                                           '"power(2; 1/2, 1/2)"')
        if c:
            p.add_argument("--c", help="rational scale, e.g. 5/6")
        if axis:
            p.add_argument("--axis", help="variable name of the hyperplane")
        if oracle_cfg:
            p.add_argument("--schedule",
                           help="comma-separated truncation boxes")
            # parsed by _oracle_config, as are the same problem-file fields
            p.add_argument("--seed", default=0, help="Monte Carlo seed")
            p.add_argument("--points", help="quadrature points per axis")
            p.add_argument("--samples", help="Monte Carlo samples")
            p.add_argument("--strict", action="store_true",
                           help="exit 4 when the verdict is Inconclusive")
        return p

    common(sub.add_parser("mult", help="multiplier ideal"),
           ideal=True, toric_fn=True, c=True)
    common(sub.add_parser("adj", help="adjoint ideal along a hyperplane"),
           ideal=True, c=True, axis=True)
    p = common(sub.add_parser("adj0", help="zero-adjoint membership for "
                                           "the power weight"))
    p.add_argument("--k", help="rational factor k > 0")
    p.add_argument("--alpha", help="comma-separated positive rationals")
    p.add_argument("--beta", help="comma-separated natural exponents")
    common(sub.add_parser("lct", help="log canonical threshold"), ideal=True)
    p = common(sub.add_parser("jump", help="jumping numbers"), ideal=True)
    p.add_argument("--cmax", help="upper bound for the jump search")
    p = common(sub.add_parser("openness", help="certified openness margin"),
               ideal=True, c=True)
    p = common(sub.add_parser("valuation", help="valuative membership test"),
               toric_fn=True)
    p.add_argument("--beta", help="comma-separated natural exponents")
    common(sub.add_parser("check-adjunction",
                          help="exactness of the adjunction sequence"),
           ideal=True, c=True, axis=True)
    p = common(sub.add_parser("oracle", help="numerical convergence oracle"),
               toric_fn=True, oracle_cfg=True)
    p.add_argument("--op", choices=("orthant", "weighted", "polydisk",
                                    "radial"), default="orthant")
    p.add_argument("--shift", help="comma-separated rational vector A")
    p.add_argument("--eps", help="rational eps >= 0 (weighted op)")
    p.add_argument("--beta", help="comma-separated natural exponents")
    p.add_argument("--weight", choices=(oracle.PLAIN, oracle.POINCARE_AXIS_1),
                   default=oracle.PLAIN)
    p.add_argument("--k", help="rational k (radial op)")
    return parser


def _merge_input_file(args: argparse.Namespace) -> None:
    if not args.input:
        return
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"problem file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError("problem file must be a JSON object")
    command = data.pop("command", None)
    if command is not None and command != args.command:
        raise InputError(f"problem file is for command {command!r}, "
                         f"not {args.command!r}")
    aliases = {"variables": "vars", "c_max": "cmax", "A": "shift"}
    for key, value in data.items():
        dest = aliases.get(key, key)
        if not hasattr(args, dest):
            raise InputError(f"unknown problem-file field {key!r}")
        if getattr(args, dest) in (None, False):
            if isinstance(value, list):
                value = ", ".join(str(v) for v in value)
            elif not isinstance(value, bool):
                value = str(value)
            setattr(args, dest, value)


def _variables(args) -> Optional[List[str]]:
    if getattr(args, "vars", None):
        return [v.strip() for v in str(args.vars).split(",")]
    return None


def _require(args, name: str) -> str:
    value = getattr(args, name, None)
    if value is None:
        raise InputError(f"missing required option --{name}")
    return str(value)


def _axis_index(names: Sequence[str], axis: str) -> int:
    if axis not in names:
        raise InputError(f"unknown axis variable {axis!r}; "
                         f"variables are {', '.join(names)}")
    return list(names).index(axis)


def _oracle_config(args) -> oracle.OracleConfig:
    kwargs = {}
    try:
        kwargs["seed"] = int(args.seed)
        if args.schedule is not None:
            kwargs["truncation_schedule"] = tuple(
                float(x) for x in str(args.schedule).split(","))
        if args.points is not None:
            kwargs["quadrature_points_per_axis"] = int(args.points)
        if args.samples is not None:
            kwargs["mc_samples"] = int(args.samples)
    except ValueError as exc:
        raise InputError(f"bad oracle setting: {exc}")
    return oracle.OracleConfig(**kwargs)


def _ideal_arg(args):
    names = _variables(args)
    return parsing.parse_ideal(_require(args, "ideal"), names)


def _emit(args, stream, payload: dict, text_lines: List[str]) -> None:
    if args.format == "json":
        document = {"command": args.command,
                    "inputs": payload.get("inputs", {}),
                    "result": payload["result"],
                    "certificates": payload.get("certificates", {}),
                    "version": __version__}
        print(json.dumps(document, indent=2, sort_keys=True,
                         allow_nan=False), file=stream)
    else:
        for line in text_lines:
            print(line, file=stream)


def _cmd_mult(args, stream) -> int:
    if getattr(args, "toric", None):
        g, names = parsing.parse_toric(args.toric, _variables(args))
        if getattr(args, "c", None) not in (None, "1"):
            raise InputError("--c applies to monomial ideals only; scale "
                             "the toric function instead")
        result = ideals.multiplier_ideal_toric(g)
        inputs = {"toric": args.toric, "variables": names}
    else:
        ideal, names = _ideal_arg(args)
        c = parsing.parse_rational(args.c) if args.c else Fraction(1)
        result = ideals.multiplier_ideal(ideal, c)
        inputs = {"ideal": parsing.format_ideal(ideal, names),
                  "c": _rat(c), "variables": names}
    shown = parsing.format_ideal(result, names)
    _emit(args, stream,
          {"inputs": inputs,
           "result": {"generators": [parsing.format_monomial(g, names)
                                     for g in result.generators]}},
          [f"{_styled('generators:', stream)} {shown}"])
    return 0


def _cmd_adj(args, stream) -> int:
    ideal, names = _ideal_arg(args)
    c = parsing.parse_rational(args.c) if args.c else Fraction(1)
    axis = _axis_index(names, _require(args, "axis"))
    result = ideals.adjoint_ideal(ideal, c, axis)
    shown = parsing.format_ideal(result, names)
    _emit(args, stream,
          {"inputs": {"ideal": parsing.format_ideal(ideal, names),
                      "c": _rat(c), "axis": names[axis],
                      "variables": names},
           "result": {"generators": [parsing.format_monomial(g, names)
                                     for g in result.generators]}},
          [f"{_styled('generators:', stream)} {shown}"])
    return 0


def _cmd_adj0(args, stream) -> int:
    k = parsing.parse_rational(_require(args, "k"))
    alpha = _csv_rationals(_require(args, "alpha"))
    beta = _csv_rationals(_require(args, "beta"))
    member = ideals.adj0_power_membership(k, alpha, beta)
    _emit(args, stream,
          {"inputs": {"k": _rat(k), "alpha": [_rat(a) for a in alpha],
                      "beta": [_rat(b) for b in beta]},
           "result": {"member": member}},
          ["member" if member else "not a member"])
    return 0


def _cmd_lct(args, stream) -> int:
    ideal, names = _ideal_arg(args)
    value = ideals.lct(ideal)
    _emit(args, stream,
          {"inputs": {"ideal": parsing.format_ideal(ideal, names),
                      "variables": names},
           "result": {"lct": _rat(value)}},
          [_rat(value)])
    return 0


def _cmd_jump(args, stream) -> int:
    ideal, names = _ideal_arg(args)
    c_max = parsing.parse_rational(_require(args, "cmax"))
    jumps = ideals.jumping_numbers(ideal, c_max)
    _emit(args, stream,
          {"inputs": {"ideal": parsing.format_ideal(ideal, names),
                      "c_max": _rat(c_max), "variables": names},
           "result": {"jumping_numbers": [_rat(j) for j in jumps]}},
          [", ".join(_rat(j) for j in jumps) if jumps else "none"])
    return 0


def _cmd_openness(args, stream) -> int:
    ideal, names = _ideal_arg(args)
    c = parsing.parse_rational(args.c) if args.c else Fraction(1)
    eps = ideals.openness_margin(ideal, c)
    _emit(args, stream,
          {"inputs": {"ideal": parsing.format_ideal(ideal, names),
                      "c": _rat(c), "variables": names},
           "result": {"epsilon": _rat(eps)}},
          [_rat(eps)])
    return 0


def _cmd_valuation(args, stream) -> int:
    g, names = parsing.parse_toric(_require(args, "toric"), _variables(args))
    beta = _csv_rationals(_require(args, "beta"))
    report = toric.valuative_membership(g, beta)
    certificates = {}
    if report.member:
        certificates["margin"] = _rat(report.margin)
        text = [f"member (margin {_rat(report.margin)})"]
    else:
        certificates["witness"] = [_rat(w) for w in report.certificate]
        text = ["not a member (witness w = "
                + ", ".join(_rat(w) for w in report.certificate) + ")"]
    _emit(args, stream,
          {"inputs": {"toric": args.toric,
                      "beta": [_rat(b) for b in beta], "variables": names},
           "result": {"member": report.member},
           "certificates": certificates},
          text)
    return 0


def _cmd_check_adjunction(args, stream) -> int:
    ideal, names = _ideal_arg(args)
    c = parsing.parse_rational(args.c) if args.c else Fraction(1)
    axis = _axis_index(names, _require(args, "axis"))
    report = ideals.adjunction_report(ideal, c, axis)
    rest_names = [v for i, v in enumerate(names) if i != axis]
    fmt = parsing.format_ideal
    _emit(args, stream,
          {"inputs": {"ideal": fmt(ideal, names), "c": _rat(c),
                      "axis": names[axis], "variables": names},
           "result": {
               "adj": [parsing.format_monomial(g, names)
                       for g in report.adjoint.generators],
               "multiplier": [parsing.format_monomial(g, names)
                              for g in report.multiplier.generators],
               "restricted_multiplier": [
                   parsing.format_monomial(g, rest_names)
                   for g in report.restricted_multiplier.generators],
               "kernel_exact": report.kernel_exact,
               "restriction_exact": report.restriction_exact}},
          [f"adj: {fmt(report.adjoint, names)}",
           f"multiplier: {fmt(report.multiplier, names)}",
           f"kernel: {fmt(report.kernel, names)}",
           f"restricted multiplier: "
           f"{fmt(report.restricted_multiplier, rest_names)}",
           f"kernel_exact: {str(report.kernel_exact).lower()}",
           f"restriction_exact: {str(report.restriction_exact).lower()}"])
    return 0


def _cmd_oracle(args, stream) -> int:
    cfg = _oracle_config(args)
    inputs = {"op": args.op}
    if args.op == "radial":
        k = parsing.parse_rational(_require(args, "k"))
        beta = _csv_rationals(_require(args, "beta"))
        if len(beta) != 1:
            raise InputError("the radial oracle is one-dimensional")
        if beta[0] < 0 or beta[0].denominator != 1:
            raise InputError("--beta must be a natural number")
        verdict = oracle.radial_power_integral(k, int(beta[0]), cfg)
        inputs.update({"k": _rat(k), "beta": [_rat(beta[0])]})
    else:
        g, names = parsing.parse_toric(_require(args, "toric"),
                                       _variables(args))
        inputs["toric"] = args.toric
        if args.op == "orthant":
            A = _csv_rationals(_require(args, "shift"))
            verdict = oracle.orthant_exp_integral(g, A, cfg)
            inputs["A"] = [_rat(a) for a in A]
        elif args.op == "weighted":
            A = _csv_rationals(_require(args, "shift"))
            eps = parsing.parse_rational(args.eps) if args.eps \
                else Fraction(0)
            verdict = oracle.adjoint_weighted_integral(g, A, eps, cfg)
            inputs.update({"A": [_rat(a) for a in A], "eps": _rat(eps)})
        else:
            beta = _csv_rationals(_require(args, "beta"))
            verdict = oracle.polydisk_mc(g, beta, args.weight, cfg)
            inputs.update({"beta": [_rat(b) for b in beta],
                           "weight": args.weight})
    partials = [f"T={t:g}: {v:.6g}" for t, v in verdict.partial_values]

    def finite(v):  # strict JSON has no inf or NaN; null stands for them
        return v if math.isfinite(v) else None
    _emit(args, stream,
          {"inputs": inputs,
           "result": {"verdict": verdict.verdict,
                      "partial_values": [[t, finite(v)] for t, v
                                         in verdict.partial_values]},
           "certificates": {"ratios": [
               finite(r) for r in verdict.evidence.get("ratios", ())],
               "rule": verdict.evidence.get("rule")}},
          [f"{_styled('verdict:', stream)} {verdict.verdict}"] + partials)
    if args.strict and verdict.verdict == oracle.INCONCLUSIVE:
        return 4
    return 0


_DISPATCH = {
    "mult": _cmd_mult,
    "adj": _cmd_adj,
    "adj0": _cmd_adj0,
    "lct": _cmd_lct,
    "jump": _cmd_jump,
    "openness": _cmd_openness,
    "valuation": _cmd_valuation,
    "check-adjunction": _cmd_check_adjunction,
    "oracle": _cmd_oracle,
}


def run(argv: Sequence[str], stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        # argparse prints usage errors, --help and --version itself
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        _merge_input_file(args)
        return _DISPATCH[args.command](args, stdout)
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
