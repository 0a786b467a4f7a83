"""The benchmark's workloads: their inputs, how one is run, how it is checked.

Inputs are fixed per size; the seed only permutes the order in which the
work is visited.  ``run`` executes inside a fresh interpreter after genus0
is imported (see child.py); ``check`` runs in the harness, outside the
timed region.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from itertools import product
from math import factorial
from pathlib import Path

NAMES = ("tensor_square", "betti_certify", "psi_products", "kappa_splitting")

GOLDEN = Path(__file__).resolve().parent / "golden"

# "full" is the benchmark proper; "tiny" keeps the smoke test quick.
SIZES = {
    "full": {"order": 7, "betti_n": 7, "psi_nmax": 6, "kappa_nmax": 7},
    "tiny": {"order": 5, "betti_n": 5, "psi_nmax": 5, "kappa_nmax": 5},
}

BETTI = {5: [1, 5, 1], 7: [1, 42, 127, 42, 1]}
KAPPA_DEGREES = (1, 2, 3)


def stable_divisors(nmax: int) -> int:
    """Boundary divisors of M_0,n summed over n = 4..nmax: 94 through 7."""
    return sum(2 ** (n - 1) - n - 1 for n in range(4, nmax + 1))


def psi_vectors(nmax: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every (n, e) with n = 4..nmax and e a length-n vector summing to n-3."""
    return [
        (n, e)
        for n in range(4, nmax + 1)
        for e in product(range(n - 2), repeat=n)
        if sum(e) == n - 3
    ]


def _cli(argv: list[str]) -> dict:
    from genus0 import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(argv)
    return {"status": status, "stdout": buf.getvalue()}


def run(name: str, size: str, seed: int):
    """Execute one workload and return its answer as JSON-ready data."""
    s = SIZES[size]
    rng = random.Random(seed)
    if name == "tensor_square":
        return _cli(["p1xp1", "--order", str(s["order"]), "--format", "json"])
    if name == "betti_certify":
        return _cli(["betti", "--n", str(s["betti_n"]), "--format", "json"])
    if name == "psi_products":
        from genus0 import taut

        work = psi_vectors(s["psi_nmax"])
        rng.shuffle(work)
        values = {
            f"{n}:{','.join(map(str, e))}": str(taut.psi_monomial(n, e))
            for n, e in work
        }
        return dict(sorted(values.items()))
    if name == "kappa_splitting":
        from genus0 import taut

        order = list(KAPPA_DEGREES)
        rng.shuffle(order)
        out = {}
        for a in order:
            rep = taut.check_logarithmic(lambda n: taut.kappa(n, a), s["kappa_nmax"])
            out[str(a)] = rep.to_dict()
        return dict(sorted(out.items()))
    raise ValueError(f"unknown workload {name!r}")


def check(name: str, size: str, answer) -> str | None:
    """None when the answer is right, else a one-line reason."""
    s = SIZES[size]
    if name == "tensor_square":
        golden = (GOLDEN / f"p1xp1-order{s['order']}.json").read_text()
        if answer["status"] != 0:
            return f"exit status {answer['status']}"
        if json.loads(answer["stdout"]).get("passed") is not True:
            return "p1xp1 did not report passed"
        if answer["stdout"] != golden:
            return "stdout differs from the golden copy"
        return None
    if name == "betti_certify":
        if answer["status"] != 0:
            return f"exit status {answer['status']}"
        got = json.loads(answer["stdout"])["betti"]
        want = BETTI[s["betti_n"]]
        return None if got == want else f"betti {got} != {want}"
    if name == "psi_products":
        work = psi_vectors(s["psi_nmax"])
        if len(answer) != len(work):
            return f"{len(answer)} values for {len(work)} exponent vectors"
        for n, e in work:
            want = factorial(n - 3)
            for k in e:
                want //= factorial(k)
            got = answer.get(f"{n}:{','.join(map(str, e))}")
            if got != str(want):
                return f"psi_monomial({n}, {e}) = {got}, want {want}"
        return None
    if name == "kappa_splitting":
        want = stable_divisors(s["kappa_nmax"])
        if sorted(answer) != sorted(map(str, KAPPA_DEGREES)):
            return f"kappa degrees {sorted(answer)}"
        for a, rep in answer.items():
            if not rep["passed"] or rep["failures"]:
                return f"kappa_{a} splitting failed"
            if rep["checked"] != want:
                return f"kappa_{a}: {rep['checked']} divisors checked, want {want}"
        return None
    raise ValueError(f"unknown workload {name!r}")
