"""Command-line front end.

One subcommand per library operation; results print as short text by
default or as a JSON document with --format json.  Exit codes: 0 on
success, 2 on any input or parse error, 3 when a mathematical
hypothesis is violated (the weight is identically -infinity on the
chosen hyperplane), 4 when an oracle verdict is Inconclusive under
--strict, and from `main` 1 when the reader closes the output early.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import List, Optional, Sequence

from . import __version__
from .lp import HypothesisError, InputError
from . import ideals, parsing, toric
from .parsing import format_rational as _rat


def _csv_rationals(text: str) -> List[Fraction]:
    return [parsing.parse_rational(part) for part in text.split(",")]


# argparse settings of every option; a subcommand's row in _COMMANDS
# names its options in order.  No option has a default: one left off the
# command line reads None unless the problem file gives it, so a given
# option is told from an absent one, and the code that reads an option
# supplies its default
_OPTIONS = {
    "--format": dict(choices=("text", "json")),
    "--input": dict(metavar="FILE",
                    help="JSON problem file; explicit flags win"),
    "--vars": dict(help="comma-separated variable names"),
    "--ideal": dict(help='e.g. "x^2, y^3"; 1 = unit, 0 = zero ideal'),
    "--toric": dict(help='e.g. "min(2*x, 3*y)" or "power(2; 1/2, 1/2)"'),
    "--c": dict(help="rational scale, e.g. 5/6"),
    "--axis": dict(help="variable name of the hyperplane"),
    "--schedule": dict(help="comma-separated truncation boxes"),
    # parsed by _oracle_config, as are the same problem-file fields
    "--points": dict(help="quadrature points per axis"),
    "--strict": dict(action="store_true",
                     help="exit 4 when the verdict is Inconclusive"),
    "--k": dict(help="rational factor k > 0"),
    "--alpha": dict(help="comma-separated positive rationals"),
    "--beta": dict(help="comma-separated natural exponents"),
    "--cmax": dict(help="upper bound for the jump search"),
    "--op": dict(choices=("orthant", "weighted", "polydisk", "radial")),
    "--shift": dict(help="comma-separated rational vector A"),
    "--eps": dict(help="rational eps >= 0 (weighted op)"),
    "--weight": dict(choices=(toric.PLAIN, toric.POINCARE_AXIS_1)),
}
_SHARED = ("--format", "--input")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nil",
        description="Exact multiplier and adjoint ideal calculator for "
                    "monomial ideals and toric weights.")
    parser.add_argument("--version", action="version",
                        version=f"nil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for option in _SHARED + options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def _read_input_file(args: argparse.Namespace) -> None:
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}")
    except ValueError as exc:  # also a numeral longer than Python reads
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
        # a problem file cannot name another problem file
        if dest == "input" or not hasattr(args, dest):
            raise InputError(f"unknown problem-file field {key!r}")
        settings = _OPTIONS[f"--{dest}"]
        # a flag is a JSON boolean; any other field is a string, a number
        # or a list of them (str() would turn null into the text "None")
        flag = settings.get("action") == "store_true"
        if flag and not isinstance(value, bool):
            raise InputError(f"problem-file field {key!r} must be true or "
                             "false")
        items = value if isinstance(value, list) else [value]
        if not flag and not all(type(v) in (str, int, float) for v in items):
            raise InputError(f"problem-file field {key!r} must be a string, "
                             "a number or a list of them")
        if getattr(args, dest) in (None, False):
            if isinstance(value, list):
                value = ", ".join(str(v) for v in value)
            elif not flag:
                value = str(value)
            choices = settings.get("choices")
            if choices and value not in choices:
                raise InputError(f"problem-file field {key!r} must be one "
                                 f"of {', '.join(choices)}")
            setattr(args, dest, value)


def _variables(args) -> Optional[List[str]]:
    if args.vars is not None:
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


def _oracle_config(args) -> dict:
    """The OracleConfig settings of the command line."""
    kwargs = {}
    try:
        if args.schedule is not None:
            kwargs["truncation_schedule"] = tuple(
                float(x) for x in str(args.schedule).split(","))
        if args.points is not None:
            kwargs["quadrature_points_per_axis"] = int(args.points)
    except ValueError as exc:
        raise InputError(f"bad oracle setting: {exc}")
    return kwargs


def _problem(args) -> tuple:
    """(problem, names, inputs), then c (1 when left off) and the axis
    index where the command takes --c and --axis.  The problem is the
    ideal of --ideal, or the weight of --toric where the command takes
    it; inputs is the JSON record of all that was read."""
    if getattr(args, "toric", None) is None and hasattr(args, "ideal"):
        problem, names = parsing.parse_ideal(_require(args, "ideal"),
                                             _variables(args))
        inputs = {"ideal": parsing.format_ideal(problem, names)}
    elif getattr(args, "ideal", None) is not None:
        raise InputError("--ideal and --toric exclude each other; give one")
    else:
        problem, names = parsing.parse_toric(_require(args, "toric"),
                                             _variables(args))
        inputs = {"toric": args.toric}
    inputs["variables"] = names
    read = [problem, names, inputs]
    if hasattr(args, "c"):
        c = Fraction(1) if args.c is None else parsing.parse_rational(args.c)
        inputs["c"] = _rat(c)
        read.append(c)
    if hasattr(args, "axis"):
        axis = _axis_index(names, _require(args, "axis"))
        inputs["axis"] = names[axis]
        read.append(axis)
    return tuple(read)


def _monomials(ideal, names) -> List[str]:
    return [parsing.format_monomial(g, names) for g in ideal.generators]


def _generators(inputs: dict, ideal, names):
    return ({"inputs": inputs,
             "result": {"generators": _monomials(ideal, names)}},
            [f"generators: {parsing.format_ideal(ideal, names)}"])


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


# each handler returns (payload, text_lines) for _emit

def _cmd_mult(args):
    problem, names, inputs, c = _problem(args)
    if args.toric is None:
        result = ideals.multiplier_ideal(problem, c)
    else:
        result = ideals.multiplier_ideal_toric(toric.scaled(problem, c))
    return _generators(inputs, result, names)


def _cmd_adj(args):
    ideal, names, inputs, c, axis = _problem(args)
    return _generators(inputs, ideals.adjoint_ideal(ideal, c, axis), names)


def _cmd_adj0(args):
    k = parsing.parse_rational(_require(args, "k"))
    alpha = _csv_rationals(_require(args, "alpha"))
    beta = _csv_rationals(_require(args, "beta"))
    member = ideals.adj0_power_membership(k, alpha, beta)
    return ({"inputs": {"k": _rat(k), "alpha": [_rat(a) for a in alpha],
                        "beta": [_rat(b) for b in beta]},
             "result": {"member": member}},
            ["member" if member else "not a member"])


def _cmd_lct(args):
    ideal, _, inputs = _problem(args)
    value = ideals.lct(ideal)
    return {"inputs": inputs, "result": {"lct": _rat(value)}}, [_rat(value)]


def _cmd_jump(args):
    ideal, _, inputs = _problem(args)
    c_max = parsing.parse_rational(_require(args, "cmax"))
    jumps = ideals.jumping_numbers(ideal, c_max)
    inputs["c_max"] = _rat(c_max)
    return ({"inputs": inputs,
             "result": {"jumping_numbers": [_rat(j) for j in jumps]}},
            [", ".join(_rat(j) for j in jumps) if jumps else "none"])


def _cmd_openness(args):
    ideal, _, inputs, c = _problem(args)
    eps = ideals.openness_margin(ideal, c)
    return {"inputs": inputs, "result": {"epsilon": _rat(eps)}}, [_rat(eps)]


def _cmd_valuation(args):
    g, _, inputs = _problem(args)
    beta = _csv_rationals(_require(args, "beta"))
    report = toric.valuative_membership(g, beta)
    if report.member:
        certificates = {"margin": _rat(report.margin)}
        text = [f"member (margin {_rat(report.margin)})"]
    else:
        certificates = {"witness": [_rat(w) for w in report.certificate]}
        text = ["not a member (witness w = "
                + ", ".join(_rat(w) for w in report.certificate) + ")"]
    inputs["beta"] = [_rat(b) for b in beta]
    return ({"inputs": inputs,
             "result": {"member": report.member},
             "certificates": certificates},
            text)


def _cmd_check_adjunction(args):
    ideal, names, inputs, c, axis = _problem(args)
    report = ideals.adjunction_report(ideal, c, axis)
    rest_names = [v for i, v in enumerate(names) if i != axis]
    fmt = parsing.format_ideal
    return ({"inputs": inputs,
             "result": {
                 "adj": _monomials(report.adjoint, names),
                 "multiplier": _monomials(report.multiplier, names),
                 "restricted_multiplier": _monomials(
                     report.restricted_multiplier, rest_names),
                 "kernel_exact": report.kernel_exact,
                 "restriction_exact": report.restriction_exact}},
            [f"adj: {fmt(report.adjoint, names)}",
             f"multiplier: {fmt(report.multiplier, names)}",
             f"kernel: {fmt(report.kernel, names)}",
             f"restricted multiplier: "
             f"{fmt(report.restricted_multiplier, rest_names)}",
             f"kernel_exact: {str(report.kernel_exact).lower()}",
             f"restriction_exact: {str(report.restriction_exact).lower()}"])


# the options each oracle --op reads, besides the shared --schedule,
# --strict, --op, --format and --input; it refuses the others
_ORACLE_OPS = {
    "radial": ("--k", "--beta", "--points"),
    "orthant": ("--vars", "--toric", "--shift", "--points"),
    "weighted": ("--vars", "--toric", "--shift", "--points", "--eps"),
    "polydisk": ("--vars", "--toric", "--beta", "--weight", "--points"),
}


def _cmd_oracle(args):
    op = args.op or "orthant"
    for n in sum(_ORACLE_OPS.values(), ()):
        if n not in _ORACLE_OPS[op] and getattr(args, n[2:]) is not None:
            raise InputError(f"--op {op} does not take {n}")
    from . import oracle  # the one module that loads numpy
    cfg = oracle.OracleConfig(**_oracle_config(args))
    # the settings the op read, defaults included, so that the inputs
    # given back through --input reproduce the result
    inputs = {"op": op, "schedule": list(cfg.truncation_schedule),
              "points": cfg.quadrature_points_per_axis}
    if op == "radial":
        k = parsing.parse_rational(_require(args, "k"))
        beta = _csv_rationals(_require(args, "beta"))
        if len(beta) != 1:
            raise InputError("the radial oracle is one-dimensional")
        verdict = oracle.radial_power_integral(k, beta[0], cfg)
        inputs.update({"k": _rat(k), "beta": [_rat(beta[0])]})
    else:
        g, _, problem_inputs = _problem(args)
        inputs.update(problem_inputs)
        if op == "orthant":
            A = _csv_rationals(_require(args, "shift"))
            verdict = oracle.orthant_exp_integral(g, A, cfg)
            inputs["A"] = [_rat(a) for a in A]
        elif op == "weighted":
            A = _csv_rationals(_require(args, "shift"))
            eps = parsing.parse_rational("0" if args.eps is None
                                         else args.eps)
            verdict = oracle.adjoint_weighted_integral(g, A, eps, cfg)
            inputs.update({"A": [_rat(a) for a in A], "eps": _rat(eps)})
        else:
            beta = _csv_rationals(_require(args, "beta"))
            weight = args.weight or inspect.signature(
                oracle.polydisk_mc).parameters["weight"].default
            verdict = oracle.polydisk_mc(g, beta, weight, cfg)
            inputs.update({"beta": [_rat(b) for b in beta],
                           "weight": weight})
    partials = [f"T={t:g}: {v:.6g}" for t, v in verdict.partial_values]

    def finite(v):  # strict JSON has no inf or NaN; null stands for them
        return v if math.isfinite(v) else None
    return ({"inputs": inputs,
             "result": {"verdict": verdict.verdict,
                        "partial_values": [[t, finite(v)] for t, v
                                           in verdict.partial_values]},
             "certificates": {"ratios": [
                 finite(r) for r in verdict.evidence.get("ratios", ())],
                 "rule": verdict.evidence.get("rule")}},
            [f"verdict: {verdict.verdict}"] + partials)


# subcommand: (help, options after _SHARED in --help order, handler)
_COMMANDS = {
    "mult": ("multiplier ideal", ("--vars", "--ideal", "--toric", "--c"),
             _cmd_mult),
    "adj": ("adjoint ideal along a hyperplane",
            ("--vars", "--ideal", "--c", "--axis"), _cmd_adj),
    "adj0": ("zero-adjoint membership for the power weight",
             ("--k", "--alpha", "--beta"), _cmd_adj0),
    "lct": ("log canonical threshold", ("--vars", "--ideal"), _cmd_lct),
    "jump": ("jumping numbers", ("--vars", "--ideal", "--cmax"), _cmd_jump),
    "openness": ("certified openness margin", ("--vars", "--ideal", "--c"),
                 _cmd_openness),
    "valuation": ("valuative membership test",
                  ("--vars", "--toric", "--beta"), _cmd_valuation),
    "check-adjunction": ("exactness of the adjunction sequence",
                         ("--vars", "--ideal", "--c", "--axis"),
                         _cmd_check_adjunction),
    "oracle": ("numerical convergence oracle",
               ("--vars", "--toric", "--schedule", "--points", "--strict",
                "--op", "--shift", "--eps", "--beta", "--weight", "--k"),
               _cmd_oracle),
}


def run(argv: Sequence[str], stdout=None, stderr=None) -> int:
    """Parse argv, answer on stdout, and return the exit code."""
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
        if args.input is not None:
            _read_input_file(args)
        payload, text_lines = _COMMANDS[args.command][2](args)
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    _emit(args, stdout, payload, text_lines)
    if getattr(args, "strict", False) \
            and payload["result"].get("verdict") == toric.INCONCLUSIVE:
        return 4
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # the reader left early; send the rest, and the flush at exit,
        # to the null device, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
