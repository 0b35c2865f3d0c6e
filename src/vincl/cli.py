"""Command-line workbench.

Subcommands
-----------
solve            run the iteration, emit the trace (json/csv/human)
verify           run the certification battery against the declared constants
check-condition  evaluate the two-sided rate condition at a given rho
list-instances   list the built-in instances

Exit codes: 0 success; 1 parse/config errors or an unwritable --output;
2 divergence or non-convergence; 3 certification failure; 4 rate condition
violated; 5 non-surjective composite.
"""

import argparse
import json
import os
import re
import sys

import numpy as np

from .certify import SamplePlan, certify_instance
from .instances import builtin_names, get_instance
from .operators import MissingConstantsError, _write_atomic, load_instance
from .resolvent import NonSurjectiveError, ResolventIterationError
from .solver import (
    DivergenceError,
    GeometricErrors,
    SolverConfig,
    check_condition_vi,
    solve,
)
from .space import ConfigError, DimensionMismatchError, NonFiniteError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3
EXIT_CONDITION_VIOLATED = 4
EXIT_NON_SURJECTIVE = 5


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: {exc}")


class _Parser(argparse.ArgumentParser):
    """Takes a list of numbers that begins with a minus sign, such as
    `--z0 -1,2`, for a value, where argparse would take it for an option."""

    _NUMBERS = re.compile(r"-[\d.][\w.,+-]*")

    def _parse_optional(self, arg_string):
        if self._NUMBERS.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        _write_atomic(output, text)


def _load(name_or_path: str):
    """Resolve an instance source: builtin name first, then a JSON path."""
    try:
        return get_instance(name_or_path).instance, name_or_path
    except KeyError:
        pass
    if not os.path.exists(name_or_path):
        raise ConfigError(
            f"unknown instance {name_or_path!r}: not a builtin "
            f"({', '.join(builtin_names())}) and no such file")
    try:
        return load_instance(name_or_path), name_or_path
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name_or_path}: JSON parse error at line "
                          f"{exc.lineno}, column {exc.colno}: {exc.msg}")
    except KeyError as exc:
        raise ConfigError(f"{name_or_path}: missing field {exc.args[0]!r}")
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{name_or_path}: {exc}")


def _add_instance_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True,
                   help="builtin instance name or path to an instance JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vincl",
        description="Workbench for set-valued variational inclusions: "
                    "solve, certify operator constants, check rate "
                    "conditions, export traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-instances", help="list builtin instances")
    p.add_argument("--format", choices=("json", "human"), default="human")
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify",
                       help="certify every declared constant of an instance")
    _add_instance_arg(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--rho-grid", type=_parse_vector, default=None)
    p.add_argument("--format", choices=("json", "human"), default="json")
    p.add_argument("--output", default=None)

    p = sub.add_parser("check-condition",
                       help="evaluate the two-sided rate condition")
    _add_instance_arg(p)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--format", choices=("json", "human"), default="human")
    p.add_argument("--output", default=None)

    p = sub.add_parser("solve", help="run the proximal-point iteration")
    _add_instance_arg(p)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--z0", type=_parse_vector, default=None)
    p.add_argument("--u0", type=_parse_vector, default=None)
    p.add_argument("--omega", type=_parse_vector, default=None,
                   help="override the instance's right-hand element")
    p.add_argument("--error-c0", type=float, default=None,
                   help="amplitude of the geometric error sequence")
    p.add_argument("--error-factor", type=float, default=0.5)
    p.add_argument("--error-direction", type=_parse_vector, default=None)
    p.add_argument("--format", choices=("json", "csv", "human"),
                   default="human")
    p.add_argument("--output", default=None)
    return parser


def _cmd_list(args) -> int:
    names = builtin_names()
    if args.format == "json":
        _emit(json.dumps(names, indent=2, sort_keys=True), args.output)
    else:
        lines = ["builtin instances:"]
        for n in names:
            inst = get_instance(n).instance
            lines.append(f"  {n:28s} dim={inst.dim} rho={inst.rho}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def _num(value, spec=".9g") -> str:
    """`value` formatted by `spec`, or "-" where it is None."""
    return "-" if value is None else format(value, spec)


def _human_certificates(bundle) -> str:
    lines = ["certificate bundle:"]
    for key, cert in sorted(bundle.certificates.items()):
        lines.append(f"  {key:32s} {cert.verdict:9s} "
                     f"constant={_num(cert.constant):>12s} "
                     f"claimed={_num(cert.claimed):>10s} [{cert.method}]")
        if cert.verdict == "fail" and cert.witness:
            lines.append(f"    witness: {json.dumps(cert.witness, sort_keys=True)}")
    if bundle.ordering_flags:
        lines.append("ordering flags: " + "; ".join(bundle.ordering_flags))
    if bundle.derived:
        lines.append("derived: " + json.dumps(bundle.derived, sort_keys=True))
    lines.append("overall: " + ("ok" if bundle.all_ok() else "FAILED"))
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    inst, _ = _load(args.instance)
    plan = SamplePlan(seed=args.seed, n_pairs=args.samples)
    bundle = certify_instance(inst, plan, rho_grid=args.rho_grid)
    _emit(bundle.to_json() if args.format == "json"
          else _human_certificates(bundle), args.output)
    return EXIT_OK if bundle.all_ok() else EXIT_VERIFY_FAILED


def _human_condition(rep) -> str:
    t = rep.terms
    lines = [
        f"rate condition at rho={rep.rho} (q={rep.q}, c_q={rep.c_q}):",
        f"  tau^q term            = {t['tau_term']:.9g}",
        f"  c_q rho^q (...)^q     = {t['error_term']:.9g}",
        f"  rho q (sigma+delta) tau^q = {t['coupling_term']:.9g}",
        f"  radicand              = {rep.radicand:.9g}",
        f"  q-th root             = {_num(rep.root)}",
        f"  r + rho*m             = {rep.r_plus_rho_m:.9g}  "
        f"(r={rep.r:.9g}, m={rep.m:.9g})",
        f"  theta (declared form) = {_num(rep.theta)}",
        f"  step-ratio bound      = {_num(rep.theta_rate_bound)}",
        f"  verdict: {rep.verdict}",
    ]
    return "\n".join(lines)


def _cmd_check_condition(args) -> int:
    inst, _ = _load(args.instance)
    rep = check_condition_vi(inst, rho=args.rho)
    _emit(rep.to_json(indent=2) if args.format == "json"
          else _human_condition(rep), args.output)
    return EXIT_OK if rep.satisfied else EXIT_CONDITION_VIOLATED


def _solver_config(inst, args) -> SolverConfig:
    z0 = args.z0 if args.z0 is not None else np.ones(inst.dim)
    errors = None
    if args.error_c0 is not None:
        direction = (args.error_direction if args.error_direction is not None
                     else np.ones(inst.dim) / np.sqrt(inst.dim))
        errors = GeometricErrors(c0=args.error_c0, factor=args.error_factor,
                                 direction=direction)
    return SolverConfig(z0=z0, rho=args.rho, tol=args.tol,
                        max_iters=args.max_iters, errors=errors, u0=args.u0)


def _human_trace(trace) -> str:
    s = trace.summary_dict()
    lines = [
        f"{'converged' if s['converged'] else 'NOT converged'} "
        f"in {s['iterations']} iterations (rho={s['rho']}, tol={s['tol']})",
        f"  final residual     = {s['final_residual']:.6g} "
        f"(bound {s['residual_bound']:.6g})",
        f"  u                  = {s['u']}",
        f"  observed tail rate = {_num(s['observed_rate'], '.6g')}",
        f"  theta (declared)   = {_num(s['theta_declared'], '.6g')}",
        f"  step-ratio bound   = {_num(s['theta_rate_bound'], '.6g')}",
    ]
    return "\n".join(lines)


def _cmd_solve(args) -> int:
    inst, _ = _load(args.instance)
    cfg = _solver_config(inst, args)
    if args.omega is not None:
        inst = inst.with_(omega=args.omega)
    trace = solve(inst, cfg)
    if args.format == "json":
        _emit(trace.to_json(), args.output)
    elif args.format == "csv":
        _emit(trace.to_csv(), args.output)
    else:
        _emit(_human_trace(trace), args.output)
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


_COMMANDS = {
    "list-instances": _cmd_list,
    "verify": _cmd_verify,
    "check-condition": _cmd_check_condition,
    "solve": _cmd_solve,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags; remap to the parse-error code
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except NonSurjectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.defect:
            print(json.dumps(exc.defect, indent=2, sort_keys=True),
                  file=sys.stderr)
        return EXIT_NON_SURJECTIVE
    except (DivergenceError, ResolventIterationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ConfigError, DimensionMismatchError, MissingConstantsError,
            NonFiniteError, OSError) as exc:    # OSError: --output unwritable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
