"""Command-line front end: every computation as a batch subcommand.

Output is either an aligned text table or JSON (``--format``).  Rationals
are always printed in lowest terms as ``p/q`` with a positive
denominator, and identical invocations produce byte-identical output.
Check-style subcommands exit 0 when the check passes and 1 when it
fails; precondition violations print a JSON error object and exit 1.
When the reader closes standard output early (``genus0 trees --n 9 |
head -1``) the command stops without a traceback and exits 1.
Setting ``GENUS0_CACHE_DIR`` caches the sparse pairing rows on disk
between runs.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .cohft import (
    Potential,
    a_coefficients,
    extract_p1xp1_numbers,
    matone_check,
    omega_recursion,
    p1_potential,
    p1xp1_numbers,
    tensor_potential,
    wdvv_check,
    wp_volumes,
)
from .intersect import pair_kaufmann, pair_oracle
from .keelring import RingElement, _fmt_coeff, betti, mul
from .taut import check_logarithmic, kappa, omega_direct, psi
from .trees import Tree, enumerate_stable_trees, iter_all_trees


def _parse_monomial(text: str, n: int) -> Tree:
    tree = Tree.parse(text)
    if tree.n != n:
        raise ValueError(f"monomial {text!r} does not live on {n} labels")
    return tree


def _element_payload(x: RingElement) -> dict:
    return {
        "n": x.n,
        "terms": [
            {"monomial": str(t) if t.degree else "1", "coeff": _fmt_coeff(c)}
            for t, c in x.sorted_terms()
        ],
    }


def _element_lines(x: RingElement) -> list[str]:
    return [repr(x)]


def _cmd_trees(args) -> tuple[int, dict, list[str]]:
    if args.degree is None:
        found = list(iter_all_trees(args.n))
    else:
        found = list(enumerate_stable_trees(args.n, args.degree))
    names = [str(t) for t in found]
    payload = {
        "n": args.n,
        "degree": args.degree,
        "count": len(names),
        "trees": names,
    }
    return 0, payload, names


def _cmd_mul(args) -> tuple[int, dict, list[str]]:
    factors = [_parse_monomial(s, args.n) for s in args.factors]
    x = RingElement.monomial(factors[0])
    for t in factors[1:]:
        x = mul(x, RingElement.monomial(t))
    payload = {"n": args.n, "factors": [str(t) for t in factors]}
    payload.update(_element_payload(x))
    return 0, payload, _element_lines(x)


def _cmd_pair(args) -> tuple[int, dict, list[str]]:
    m1 = _parse_monomial(args.m1, args.n)
    m2 = _parse_monomial(args.m2, args.n)
    kauf = pair_kaufmann(m1, m2)
    orac = pair_oracle(m1, m2)
    if kauf != orac:
        raise ArithmeticError(
            f"pairing engines disagree: kaufmann {kauf}, oracle {orac}"
        )
    payload = {
        "n": args.n,
        "m1": str(m1),
        "m2": str(m2),
        "value": _fmt_coeff(kauf),
    }
    return 0, payload, [_fmt_coeff(kauf)]


def _cmd_betti(args) -> tuple[int, dict, list[str]]:
    if args.degree is None:
        vec = betti(args.n)
    else:
        vec = [betti(args.n, args.degree)]
    payload = {"n": args.n, "degree": args.degree, "betti": vec}
    return 0, payload, [str(vec)]


def _cmd_psi(args) -> tuple[int, dict, list[str]]:
    cls = psi(args.n, args.label)
    payload = cls.to_dict()
    return 0, payload, _element_lines(cls.element)


def _cmd_kappa(args) -> tuple[int, dict, list[str]]:
    cls = kappa(args.n, args.a)
    payload = cls.to_dict()
    return 0, payload, _element_lines(cls.element)


def _cmd_log_check(args) -> tuple[int, dict, list[str]]:
    rep = check_logarithmic(lambda n: kappa(n, args.a), args.nmax)
    payload = {"a": args.a}
    payload.update(rep.to_dict())
    lines = [
        f"kappa_{args.a} splitting through n = {args.nmax}: "
        + ("passed" if rep.passed else "FAILED"),
        f"divisors checked: {rep.checked}",
    ]
    for n, name in rep.failures:
        lines.append(f"  fails at n = {n}, divisor {name}")
    return (0 if rep.passed else 1), payload, lines


def _cmd_wp_volumes(args) -> tuple[int, dict, list[str]]:
    vols = wp_volumes(args.nmax)
    payload = {
        "nmax": args.nmax,
        "volumes": [_fmt_coeff(v) for v in vols],
    }
    return 0, payload, [f"v = [{', '.join(_fmt_coeff(v) for v in vols)}]"]


def _cmd_matone(args) -> tuple[int, dict, list[str]]:
    rep = matone_check(args.nmax)
    payload = rep.to_dict()
    if rep.passed:
        lines = [
            f"volume series solves its equation through x^{args.nmax} "
            f"({rep.checked} coefficients)"
        ]
    else:
        k, lhs, rhs = rep.failure
        lines = [f"FAILED at x^{k}: {_fmt_coeff(lhs)} != {_fmt_coeff(rhs)}"]
    return (0 if rep.passed else 1), payload, lines


def _cmd_a_coeffs(args) -> tuple[int, dict, list[str]]:
    table = a_coefficients(args.n, args.a)
    payload = table.to_dict()
    width = max(len(str(rep)) for rep, _, _ in table.entries)
    lines = [f"kernel dimension {table.kernel_dim}"]
    for rep, size, val in table.entries:
        lines.append(f"{str(rep).ljust(width)}  x{size:<4d} {_fmt_coeff(val)}")
    return 0, payload, lines


def _cmd_omega(args) -> tuple[int, dict, list[str]]:
    rec = omega_recursion(args.n, args.a)
    direct = omega_direct(args.n, args.a)
    if rec != direct:
        raise ArithmeticError(
            f"recursion {rec} disagrees with the direct integral {direct}"
        )
    payload = {
        "n": args.n,
        "a": args.a,
        "recursion": _fmt_coeff(rec),
        "direct": _fmt_coeff(direct),
    }
    lines = [
        f"recursion = {_fmt_coeff(rec)}",
        f"direct    = {_fmt_coeff(direct)}",
    ]
    return 0, payload, lines


def _load_potential(path: str) -> Potential:
    with open(path) as fh:
        return Potential.from_dict(json.load(fh))


def _potential_lines(phi: Potential) -> list[str]:
    lines = [f"rank {phi.metric.rank}  order {phi.order}"]
    if not phi.terms:
        return lines + ["0"]
    width = max(len(" ".join(map(str, k))) for k, _ in phi.terms)
    for k, v in phi.terms:
        lines.append(f"{' '.join(map(str, k)).ljust(width)}  {_fmt_coeff(v)}")
    return lines


def _cmd_wdvv(args) -> tuple[int, dict, list[str]]:
    phi = _load_potential(args.input)
    rep = wdvv_check(phi, order=args.order)
    payload = rep.to_dict()
    if rep.passed:
        lines = [
            f"associativity holds through order {rep.order} "
            f"({rep.checked} constraints)"
        ]
    else:
        quad, nu, lhs, rhs = rep.failure
        lines = [
            f"FAILED at quadruple {quad}, spectators {nu}: "
            f"{_fmt_coeff(lhs)} != {_fmt_coeff(rhs)}"
        ]
    return (0 if rep.passed else 1), payload, lines


def _cmd_tensor(args) -> tuple[int, dict, list[str]]:
    left = _load_potential(args.left)
    right = _load_potential(args.right)
    out = tensor_potential(left, right, order=args.order)
    payload = out.to_dict()
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        note = [f"wrote product potential to {args.output}"]
        return 0, {"written": args.output}, note
    return 0, payload, _potential_lines(out)


def _cmd_p1xp1(args) -> tuple[int, dict, list[str]]:
    phi = p1_potential(args.order)
    sq = tensor_potential(phi, phi)
    classical_ok = sq.y((0, 0, 3)) == 1 and sq.y((0, 1, 2)) == 1
    extracted = extract_p1xp1_numbers(sq)
    tmax = max(a + b for a, b in extracted)
    reference = p1xp1_numbers(tmax)
    rows = []
    numbers_ok = True
    for a, b in sorted(extracted, key=lambda ab: (ab[0] + ab[1], ab)):
        got = extracted[(a, b)]
        want = reference.get((a, b), Fraction(0))
        if got != want:
            numbers_ok = False
        rows.append(
            {
                "bidegree": [a, b],
                "tensor": _fmt_coeff(got),
                "recursion": _fmt_coeff(want),
            }
        )
    wdvv_ok = wdvv_check(sq).passed
    passed = classical_ok and numbers_ok and wdvv_ok
    payload = {
        "order": args.order,
        "classical_ok": classical_ok,
        "numbers": rows,
        "numbers_agree": numbers_ok,
        "wdvv_passed": wdvv_ok,
        "passed": passed,
    }
    lines = [
        f"tensor square of the line through order {args.order}",
        "classical terms (x^2 z)/2 + x y1 y2: "
        + ("ok" if classical_ok else "WRONG"),
    ]
    for row in rows:
        a, b = row["bidegree"]
        mark = "" if row["tensor"] == row["recursion"] else "  <- disagree"
        lines.append(f"N({a},{b}) = {row['tensor']}{mark}")
    lines.append("bidegree counts match the recursion: " + ("yes" if numbers_ok else "NO"))
    lines.append("associativity: " + ("passed" if wdvv_ok else "FAILED"))
    return (0 if passed else 1), payload, lines


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="genus0",
        description="exact intersection calculus on spaces of stable rational curves",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=fn)
        p.add_argument(
            "--format",
            choices=("table", "json"),
            default="table",
            help="output style (default table)",
        )
        return p

    p = add("trees", _cmd_trees, "enumerate stable trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)

    p = add("mul", _cmd_mul, "reduce a product of boundary monomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--factors", nargs="+", required=True, metavar="MONOMIAL")

    p = add("pair", _cmd_pair, "intersection pairing of two monomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)

    p = add("betti", _cmd_betti, "even Betti numbers, doubly certified")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)

    p = add("psi", _cmd_psi, "cotangent class in boundary divisors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--label", type=int, required=True)

    p = add("kappa", _cmd_kappa, "kappa class in boundary divisors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = add("log-check", _cmd_log_check, "boundary splitting of kappa powers")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)

    p = add("wp-volumes", _cmd_wp_volumes, "volume numbers v_4..v_nmax")
    p.add_argument("--nmax", type=int, required=True)

    p = add("matone", _cmd_matone, "volume series differential equation")
    p.add_argument("--nmax", type=int, default=12)

    p = add("a-coeffs", _cmd_a_coeffs, "stratum coefficients of kappa_a")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = add("omega", _cmd_omega, "kappa integral, recursion vs direct")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = add("wdvv", _cmd_wdvv, "associativity check of a potential file")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, default=None)

    p = add("tensor", _cmd_tensor, "tensor product of two potential files")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--output", default=None)

    p = add("p1xp1", _cmd_p1xp1, "tensor square of the line, end to end")
    p.add_argument("--order", type=int, default=8)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status, payload, lines = args.handler(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        status, lines = 1, [json.dumps(err, indent=2)]
    else:
        if args.format == "json":
            lines = [json.dumps(payload, indent=2)]
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (as `| head` does).  Point stdout at
        # devnull so that the interpreter's own flush at exit cannot raise
        # again, and report the lost output with status 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
