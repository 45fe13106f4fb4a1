"""Command-line front end.

Exit codes: 0 verdict-positive (integral found / property true), 1 negative,
2 inconclusive (caps, field extension required), 3 input error (usage errors
included), 4 internal error (a failed internal consistency check, such as a
resolution error).
"""

from __future__ import annotations

import argparse
import re
import sys

from . import engine, linsys
from .cluster import (
    Configuration, ConfigurationError, dump_configuration, is_p_sufficient,
    load_configuration, read_field,
)
from .numfield import QQ, FieldExtensionNeeded, NumberField
from .polyforms import (
    ProjectiveOneForm, format_form, is_first_integral, is_invariant_curve,
    parse_form,
)
from .resolve import DEPTH_CAP, DepthCapExceeded, build_configuration
from .textio import format_poly_in_t

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on the input-error exit code: argparse's
    own code 2 is the code of an inconclusive verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _forms_may_start_with_minus(parser):
    """Read an argument such as -X*Z+Y*Z as a form, not as an unknown
    option: argparse takes an argument that starts with "-" for a
    positional only when it matches this pattern, which by default is a
    negative number.  The options themselves all start with "--" or are
    -h, and argparse matches those first."""
    parser._negative_number_matcher = re.compile(r"^-[^-]")


def load_foliation(path: str, field: NumberField = None):
    """Read a foliation file: an optional ``field:`` line, then A, B, C."""
    comps = {}
    declared = field_line = None
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise InputError("cannot read %s: %s" % (path, err))
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("field:"):
            if field_line is not None:
                raise InputError("%s:%d: field is already given on line %d"
                                 % (path, lineno, field_line))
            declared = NumberField.from_string(line.split(":", 1)[1].strip(),
                                               field)
            field_line = lineno
            continue
        if "=" not in line:
            raise InputError("%s:%d: expected 'A = ...'" % (path, lineno))
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ("A", "B", "C"):
            raise InputError("%s:%d: unknown component %r" %
                             (path, lineno, key))
        if key in comps:
            raise InputError("%s:%d: %s is already given on line %d" %
                             (path, lineno, key, comps[key][1]))
        comps[key] = (value, lineno)
    if declared is not None and field is not None and declared != field:
        raise InputError("%s: field declaration disagrees with the "
                         "configuration's field" % path)
    # one field object per run: the caller's, when the declaration agrees
    use = field or declared or QQ
    missing = [k for k in "ABC" if k not in comps]
    if missing:
        raise InputError("%s: missing component(s) %s" %
                         (path, ", ".join(missing)))
    parsed = {}
    for key, (value, lineno) in comps.items():
        try:
            parsed[key] = parse_form(value, use)
        except ValueError as err:
            raise InputError("%s:%d: %s" % (path, lineno, err))
    try:
        omega = ProjectiveOneForm(parsed["A"], parsed["B"], parsed["C"])
    except ValueError as err:
        raise InputError("%s: %s" % (path, err))
    return omega, use


def load_config_file(path: str, field: NumberField = None) -> Configuration:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise InputError("cannot read %s: %s" % (path, err))
    try:
        return load_configuration(text, field)
    except (ConfigurationError, ValueError) as err:
        raise InputError("%s: %s" % (path, err))


def _peek_field(path: str):
    """The field declared in a configuration file, if any."""
    try:
        with open(path) as fh:
            return read_field(fh.read())
    except OSError as err:
        raise InputError("cannot read %s: %s" % (path, err))
    except ValueError as err:
        raise InputError("%s: %s" % (path, err))


def _emit(args, text_line, machine_line):
    print(machine_line if args.machine else text_line)


def _print_verdict(args, verdict):
    if verdict.outcome == "integral":
        F = format_form(verdict.numerator)
        G = format_form(verdict.denominator)
        if args.machine:
            print("verdict=integral")
            print("F=%s" % F)
            print("G=%s" % G)
        else:
            print("rational first integral found:")
            print("  F = %s" % F)
            print("  G = %s" % G)
        return EXIT_YES
    if verdict.outcome == "no_integral":
        if args.machine:
            print("verdict=no_integral")
            print("reason=%s" % verdict.reason)
        else:
            print("no rational first integral: %s" % verdict.reason)
        return EXIT_NO
    if args.machine:
        print("verdict=inconclusive")
        print("reason=%s" % verdict.reason)
    else:
        print("inconclusive: %s" % verdict.reason)
    return EXIT_INCONCLUSIVE


def _foliation_and_config(args):
    cfg_field = _peek_field(args.config) if args.config else None
    omega, field = load_foliation(args.foliation, cfg_field)
    if args.config:
        config = load_config_file(args.config, field)
    else:
        config = build_configuration(omega, depth_cap=args.depth)
    return omega, field, config


def _trace_fn(args):
    if not args.trace:
        return None
    return lambda line: print(line, file=sys.stderr)


def cmd_resolve(args):
    omega, field = load_foliation(args.foliation)
    config = build_configuration(omega, depth_cap=args.depth)
    sys.stdout.write(dump_configuration(config))
    return EXIT_YES


def cmd_decide(args):
    omega, field, config = _foliation_and_config(args)
    caps = engine.Caps(d_max=args.dmax, lam_max=args.lmax)
    verdict = engine.pipeline(omega, config, caps, trace=_trace_fn(args))
    return _print_verdict(args, verdict)


def cmd_decide_degree(args):
    omega, field, config = _foliation_and_config(args)
    verdict = engine.algorithm1(omega, config, args.degree)
    return _print_verdict(args, verdict)


def cmd_check_integral(args):
    omega, field = load_foliation(args.foliation)
    try:
        F = parse_form(args.numerator, field)
        G = parse_form(args.denominator, field)
    except ValueError as err:
        raise InputError(str(err))
    ok = is_first_integral(F, G, omega)
    _emit(args, "F/G is a rational first integral: %s" % ok,
          "first_integral=%s" % str(ok).lower())
    return EXIT_YES if ok else EXIT_NO


def cmd_invariant(args):
    omega, field = load_foliation(args.foliation)
    try:
        G = parse_form(args.curve, field)
    except ValueError as err:
        raise InputError(str(err))
    ok = is_invariant_curve(G, omega)
    _emit(args, "the curve is invariant: %s" % ok,
          "invariant=%s" % str(ok).lower())
    return EXIT_YES if ok else EXIT_NO


def cmd_psufficient(args):
    config = load_config_file(args.config)
    ok = is_p_sufficient(config)
    _emit(args, "the configuration is P-sufficient: %s" % ok,
          "psufficient=%s" % str(ok).lower())
    return EXIT_YES if ok else EXIT_NO


def cmd_h0(args):
    config = load_config_file(args.config)
    if len(args.multiplicities) != config.size:
        raise InputError("expected %d multiplicities, got %d" %
                         (config.size, len(args.multiplicities)))
    D = config.divisor(args.degree, args.multiplicities)
    dim = linsys.h0(D, config)
    forms = linsys.basis(D, config)
    if args.machine:
        print("h0=%d" % dim)
        for f in forms:
            print("basis=%s" % format_form(f))
    else:
        print("h0 = %d" % dim)
        for f in forms:
            print("  %s" % format_form(f))
    return EXIT_YES


def build_parser():
    parser = _Parser(
        prog="folint",
        description="decide whether a plane foliation has a rational first "
                    "integral, and compute one when it exists")
    # each subcommand accepts only the options it reads
    machine = argparse.ArgumentParser(add_help=False)
    machine.add_argument("--machine", action="store_true",
                         help="stable line-oriented output")
    depth = argparse.ArgumentParser(add_help=False, parents=[machine])
    depth.add_argument("--depth", type=int, default=DEPTH_CAP,
                       help="blow-up depth cap for resolution (default "
                       "%(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resolve", parents=[depth],
                       help="compute the dicritical configuration")
    p.add_argument("foliation")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("decide", parents=[depth],
                       help="full decision pipeline")
    p.add_argument("--dmax", type=int, default=engine.Caps.d_max,
                   help="degree cap for the cone search (default %(default)s)")
    p.add_argument("--lmax", type=int, default=engine.Caps.lam_max,
                   help="multiplier cap for the pencil search (default "
                   "%(default)s)")
    p.add_argument("--trace", action="store_true",
                   help="log every candidate divisor to stderr")
    p.add_argument("foliation")
    p.add_argument("config", nargs="?")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("decide-degree", parents=[depth],
                       help="decide a first integral of a fixed degree")
    p.add_argument("degree", type=int)
    p.add_argument("foliation")
    p.add_argument("config", nargs="?")
    p.set_defaults(func=cmd_decide_degree)

    p = sub.add_parser("check-integral", parents=[machine],
                       help="verify d(F/G) ^ omega = 0")
    p.add_argument("numerator")
    p.add_argument("denominator")
    p.add_argument("foliation")
    _forms_may_start_with_minus(p)
    p.set_defaults(func=cmd_check_integral)

    p = sub.add_parser("invariant", parents=[machine],
                       help="test a curve for invariance")
    p.add_argument("curve")
    p.add_argument("foliation")
    _forms_may_start_with_minus(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("psufficient", parents=[machine],
                       help="exact strict-copositivity test of the "
                            "configuration")
    p.add_argument("config")
    p.set_defaults(func=cmd_psufficient)

    p = sub.add_parser("h0", parents=[machine],
                       help="dimension and basis of a linear system")
    p.add_argument("config")
    p.add_argument("degree", type=int)
    p.add_argument("multiplicities", type=int, nargs="*")
    p.set_defaults(func=cmd_h0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_INPUT
    except (FieldExtensionNeeded, DepthCapExceeded) as err:
        extension = isinstance(err, FieldExtensionNeeded)
        reason = str(err)
        if args.machine:
            reason = ("field extension required" if extension
                      else "depth cap exceeded")
        code = _print_verdict(args, engine.Verdict.inconclusive(reason))
        if args.machine and extension and err.certificate is not None:
            print("certificate=%s" % format_poly_in_t(err.certificate))
        return code
    except (ConfigurationError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, ZeroDivisionError) as err:
        print("error: internal: %s" % err, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
