"""Command-line interface.

Every subcommand prints a flat ``key=value`` envelope on stdout: first
the command name and an echo of the parsed inputs, then the result
fields, then zero or more ``warning=`` lines.  All floats are printed
with 17 significant digits so the text round-trips losslessly back to
the same doubles.  Output is deterministic: identical invocations are
byte-identical.

Each ``cmd_*`` returns its envelope fields without the command name and
writes nothing.  ``main`` writes the envelope, or on an error writes
nothing to stdout and one ``error=`` line to stderr.

Exit codes: 0 success, 1 usage error (bad arguments, or an ``--out``
file that cannot be written: OSError), 2 domain error (invalid inputs:
DomainError), 3 non-convergence (a numeric routine gave up:
NonConvergence), 4 self-test failure (the envelope says
``selftest=fail``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import certify as ct
from . import eigen as eg
from . import elliptic as el
from . import fourier as fr
from . import qtheta as qt
from .errors import DomainError, NonConvergence, _check_int, _check_interval

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NONCONVERGENCE = 3
EXIT_SELFTEST = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the envelope
    # reserves 2 for domain errors, so route usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _mu_list(text: str):
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad modulus list {text!r}") from exc
    return vals


def _mu_grid(text: str):
    # a wrong number of parts fails the unpacking with a ValueError too
    try:
        lo, hi, n = text.split(":")
        return float(lo), float(hi), int(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:n, got {text!r}") from exc


def cmd_kp(args) -> list:
    if args.method == "series":
        value = el.kp_via_2f1(args.p, args.mu)
        # an independent error gauge: kp is the quadrature at every p
        err = abs(value - el.kp(args.p, args.mu))
    else:
        res = el.kp_quadrature(args.p, args.mu)
        value, err = res.value, res.abs_error_estimate
    return [
        ("p", args.p),
        ("mu", args.mu),
        ("method", args.method),
        ("value", value),
        ("error_estimate", err),
    ]


def cmd_snp(args) -> list:
    sv = el.snp_value(args.p, args.mu, args.y)
    return [
        ("p", args.p),
        ("mu", args.mu),
        ("y", args.y),
        ("value", sv.value),
        ("period_index", sv.branch_period_index),
    ]


def cmd_eigen(args) -> list:
    _check_int("x_samples", args.x_samples, 0)
    e = eg.eigenpair(args.p, args.mu, args.n)
    pairs = [
        ("p", args.p),
        ("mu", args.mu),
        ("n", args.n),
        ("sign", e.sign),
        ("amplitude", e.amplitude),
        ("lambda", e.lam),
        ("alpha", e.alpha),
        ("beta", e.beta),
        ("c", e.c),
    ]
    if args.x_samples > 0:
        xs = np.linspace(0.0, 1.0, args.x_samples)
        for i, x in enumerate(xs):
            pairs.append((f"x_{i}", float(x)))
            pairs.append((f"phi_{i}", eg.eigenfunction_eval(e, float(x))))
    return pairs


def cmd_tau(args) -> list:
    prof = fr.fourier_profile(args.p, args.mu, K_max=args.kmax)
    pairs = [
        ("p", args.p),
        ("mu", args.mu),
        ("kmax", args.kmax),
    ]
    for k, c in enumerate(prof.coefficients, start=1):
        pairs.append((f"tau_{k}", c))
    pairs.append(("tail_bound", prof.tail_bound))
    return pairs


def cmd_q0(args) -> list:
    return [("value", qt.solve_q0())]


def cmd_mu0(args) -> list:
    value = qt.mu0()
    return [("value", value), ("one_minus_value", 1.0 - value)]


def cmd_s(args) -> list:
    value = qt.fraenkel_s(args.q, args.sign)
    return [("q", args.q), ("sign", args.sign), ("value", value)]


def _build_modulus_set(args) -> tuple[ct.ModulusSet, list]:
    warnings = []
    if args.mu_const is not None:
        return ct.ModulusSet.constant(args.mu_const), warnings
    if args.mu_list is not None:
        return ct.ModulusSet.explicit(args.mu_list), warnings
    lo, hi, n = args.mu_grid
    warnings.append(
        "interval grid: sups are taken over the sampled nodes only, not "
        "rigorously over the whole interval"
    )
    return ct.ModulusSet.grid(lo, hi, n), warnings


def cmd_certify(args) -> list:
    # only the coefficient test truncates; elsewhere --kmax would go unused
    if args.kmax is not None and args.criterion != "invert":
        raise DomainError(
            f"--kmax applies to --criterion invert only, not {args.criterion}"
        )
    ms, warnings = _build_modulus_set(args)
    if args.criterion == "firstcond":
        rep = ct.certify_firstcond(args.p, ms)
    elif args.criterion == "invert":
        K = 21 if args.kmax is None else args.kmax
        rep = ct.certify_invertibility(args.p, ms, K=K)
    else:
        # the sharp criterion holds at p = 2 only, and its envelope echoes no p
        _check_interval("p", args.p, 2.0, 2.0, "[]")
        rep = ct.certify_p2_sharp(ms)
    # the report's fields in order, with the inputs echoed after the criterion
    fields = [(f.name, getattr(rep, f.name)) for f in dataclasses.fields(rep)]
    pairs = fields[:1]
    if args.criterion != "p2sharp":
        pairs.append(("p", args.p))
    pairs += [("set_kind", ms.kind), ("set_size", len(ms.values)), *fields[1:]]
    return pairs + [("warning", w) for w in warnings]


def cmd_region(args) -> list:
    _check_int("pgrid", args.pgrid, 1)
    _check_int("mugrid", args.mugrid, 1)
    ops = [(i + 1.0) / (args.pgrid + 1.0) for i in range(args.pgrid)]
    # dividing before scaling keeps the last node exactly at the 0.999 cap
    mus = [0.999 * ((j + 1.0) / args.mugrid) for j in range(args.mugrid)]
    rows = ct.region_scan(ops, mus)
    text = ct.region_csv(rows)
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    return [
        ("pgrid", args.pgrid),
        ("mugrid", args.mugrid),
        ("out", args.out),
        ("rows", len(rows)),
        ("inside_count", sum(r[3] for r in rows)),
    ]


def _selftest_checks():
    sqrt2 = math.sqrt(2.0)

    def kp_closed_form():
        assert abs(el.kp(2.0, 0.0) - math.pi / 2.0) < 1e-13
        assert abs(el.kp(3.0, 0.0) - math.pi / (3.0 * math.sin(math.pi / 3.0))) < 1e-13

    def kp_series_agreement():
        assert abs(el.kp(3.0, 0.6) - el.kp_via_2f1(3.0, 0.6)) < 1e-12

    def snp_odd_and_periodic():
        K = el.kp(2.5, 0.4)
        y = 0.37 * K
        assert abs(el.snp(2.5, 0.4, y) + el.snp(2.5, 0.4, -y)) < 1e-12
        assert abs(el.snp(2.5, 0.4, y + 4.0 * K) - el.snp(2.5, 0.4, y)) < 1e-9

    def snp_matches_agm():
        for y in (0.3, 0.9, 1.4):
            assert abs(el.snp(2.0, 0.7, y) - qt.agm_jacobi_sn(y, 0.7)) < 1e-11

    def deriv_consistency():
        h = 1e-5
        fd = (el.snp(3.0, 0.5, 0.8 + h) - el.snp(3.0, 0.5, 0.8 - h)) / (2.0 * h)
        assert abs(fd - el.snp_deriv(3.0, 0.5, 0.8)) < 1e-6

    def lambert_identity():
        direct = qt.lambert_L(0.5)
        via = qt.lambert_via_digamma(0.5)
        assert abs(direct - via) < 1e-10

    def rho_sums_to_one_at_q0():
        q0 = qt.solve_q0()
        assert 0.7 < q0 < 0.8
        assert abs((1.0 - q0) * qt.odd_lambert_sum(q0) - 1.0) < 1e-9

    def mu0_in_range():
        assert 0.999 < qt.mu0() < 1.0

    def even_tau_vanishes():
        assert abs(fr.tau_k(2.0, 0.5, 2)) < 1e-9

    def tau1_above_floor():
        assert fr.tau1_margin(2.0, 0.5) > 0.0

    def eigen_p2_closed_form():
        e = eg.eigenpair(2.0, 0.5, 1)
        K = el.kp(2.0, 0.5)
        assert abs(e.lam - 4.0 * 1.25 * K * K) < 1e-9
        assert abs(e.amplitude - 2.0 * sqrt2 * 0.5 * K) < 1e-12

    def first_integral_residual_small():
        e = eg.eigenpair(2.0, 0.5, 1)
        xs = np.linspace(0.01, 0.99, 41)
        rep = eg.first_integral_residual(e, xs)
        assert rep.max_abs_residual < 1e-6 * e.lam**2

    def verdict_partition():
        assert ct._verdict(1.0, 2.0, 0.0)[0] == "PASS"
        assert ct._verdict(2.0, 1.0, 0.0)[0] == "FAIL"
        assert ct._verdict(1.0, 1.5, 0.6)[0] == "INCONCLUSIVE"

    def firstcond_spot():
        assert ct.certify_firstcond(2.0, ct.ModulusSet.constant(0.5)).verdict == "PASS"

    return [
        kp_closed_form,
        kp_series_agreement,
        snp_odd_and_periodic,
        snp_matches_agm,
        deriv_consistency,
        lambert_identity,
        rho_sums_to_one_at_q0,
        mu0_in_range,
        even_tau_vanishes,
        tau1_above_floor,
        eigen_p2_closed_form,
        first_integral_residual_small,
        verdict_partition,
        firstcond_spot,
    ]


def cmd_selftest(args) -> list:
    checks = _selftest_checks()
    pairs = []
    failures = 0
    for fn in checks:
        try:
            fn()
        except Exception as exc:  # any breakage is a failed check
            failures += 1
            pairs.append((f"check_{fn.__name__}", f"FAIL: {exc!r}"))
        else:
            pairs.append((f"check_{fn.__name__}", "ok"))
    pairs.append(("checks", len(checks)))
    pairs.append(("failures", failures))
    pairs.append(("selftest", "ok" if failures == 0 else "fail"))
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pelliptic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kp", help="complete integral K_p(mu)")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--method", choices=("quad", "series"), default="quad")
    sp.set_defaults(func=cmd_kp)

    sp = sub.add_parser("snp", help="generalized sine amplitude sn_p(y; mu)")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.set_defaults(func=cmd_snp)

    sp = sub.add_parser("eigen", help="n-th eigenpair of the p-Laplacian problem")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--x-samples", type=int, default=0)
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("tau", help="Fourier sine coefficients of the profile")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--kmax", type=int, required=True)
    sp.set_defaults(func=cmd_tau)

    sp = sub.add_parser("q0", help="root of the sharp-threshold nome equation")
    sp.set_defaults(func=cmd_q0)

    sp = sub.add_parser("mu0", help="modulus of the sharp-threshold nome")
    sp.set_defaults(func=cmd_mu0)

    sp = sub.add_parser("s", help="Fraenkel's scale s = sign 4 pi sqrt(q) / (1 - q)")
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--sign", type=int, choices=(1, -1), default=1)
    sp.set_defaults(func=cmd_s)

    sp = sub.add_parser("certify", help="run a Riesz-basis certificate")
    sp.add_argument(
        "--criterion", choices=("firstcond", "invert", "p2sharp"), required=True
    )
    sp.add_argument("--p", type=float, default=2.0)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu-const", type=float)
    group.add_argument("--mu-list", type=_mu_list)
    group.add_argument("--mu-grid", type=_mu_grid, metavar="LO:HI:N")
    sp.add_argument("--kmax", type=int, help="invert only (default 21)")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("region", help="tabulate the admissible (1/p, mu) region")
    sp.add_argument("--pgrid", type=int, required=True)
    sp.add_argument("--mugrid", type=int, required=True)
    sp.add_argument("--out", type=str, required=True)
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("selftest", help="run the built-in invariant checks")
    sp.set_defaults(func=cmd_selftest)

    return parser


# parse_args leaves a parser unchanged, so main builds one per process
_main_parser = functools.cache(build_parser)


def _error(exc: Exception, code: int) -> int:
    sys.stderr.write(f"error={exc}\n")
    return code


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        pairs = args.func(args)
    except DomainError as exc:
        return _error(exc, EXIT_DOMAIN)
    except NonConvergence as exc:
        return _error(exc, EXIT_NONCONVERGENCE)
    except OSError as exc:
        return _error(exc, EXIT_USAGE)
    envelope = [("command", args.command), *pairs]
    sys.stdout.write("".join(f"{key}={_fmt(val)}\n" for key, val in envelope))
    return EXIT_SELFTEST if ("selftest", "fail") in pairs else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
