"""Command-line front end.  JSON by default, --pretty / --csv opt-in.

Exit codes: 0 success, 1 stdout closed early (a broken pipe, as in
``| head``), 2 argument or domain error (ValueError, ZeroDivisionError),
3 internal invariant failure (a failed verify suite or another ArithmeticError:
a residual pi power, or a value not integral where it must be).
All exact values are emitted as strings so nothing is rounded.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from fractions import Fraction

from . import clifford, exactq, ggroups, oracles, profinite, qforms
from . import euler as euler_mod


def _l2_record(prof: euler_mod.L2Profile, betti_value: str) -> dict:
    """The "l2" object; ``betti_value`` is prof.betti_value in decimal."""
    return {
        "betti_degree": prof.betti_degree,
        "betti_value": betti_value,
        "ns_range": list(prof.ns_range) if prof.ns_range else None,
        "ns_value": prof.ns_value if prof.ns_value is not None else "inf+",
        "torsion_sign": prof.torsion_sign,
    }


def _chi_record(res: euler_mod.EulerResult) -> dict:
    desc = res.descriptor
    return {
        "m": desc.m,
        "n": desc.n,
        "d": desc.d,
        "dimX": desc.dim_x,
        "delta": desc.delta,
        "chi": res.factored,
        "chi_rational": exactq.decimal_str(res.value),
        "sign": res.sign,
        "case": res.case,
    }


def _with_l2(rec: dict, res: euler_mod.EulerResult) -> dict:
    # the Betti value |chi| is the row's chi_rational without its sign
    return {**rec, "l2": _l2_record(euler_mod.L2Profile.of(res), rec["chi_rational"].lstrip("-"))}


def _emit(record: dict, pretty: bool) -> None:
    print(json.dumps(record, indent=2 if pretty else None))


def _cmd_chi(args) -> int:
    if args.factored:
        print(euler_mod.chi_closed(args.m, args.n).factored)
        return 0
    res = euler_mod.chi_closed(args.m, args.n)
    _emit(_with_l2(_chi_record(res), res), args.pretty)
    return 0


def _cmd_sign(args) -> int:
    _emit({"m": args.m, "n": args.n,
           "sign": euler_mod.chi_sign(args.m, args.n)}, args.pretty)
    return 0


def _cmd_profile(args) -> int:
    prof = euler_mod.l2_profile(args.m, args.n)
    _emit({"m": args.m, "n": args.n, "dimX": prof.descriptor.dim_x,
           "delta": prof.delta,
           "l2": _l2_record(prof, exactq.decimal_str(prof.betti_value))}, args.pretty)
    return 0


def _cmd_compare(args) -> int:
    rep = profinite.profinitely_commensurable(args.m, args.n, args.m2, args.n2)
    first, second = rep.chi_both
    _emit({
        "first": {"m": args.m, "n": args.n,
                  "chi": first.factored, "sign": first.sign},
        "second": {"m": args.m2, "n": args.n2,
                   "chi": second.factored, "sign": second.sign},
        "locally_equivalent": rep.locally_equivalent,
        "witness": rep.witness,
        "csp_note": rep.csp_note,
        "dim_mod4_consistent": rep.dim_mod4_consistent,
        "delta_consistent": rep.delta_consistent,
        "verdict": rep.verdict,
    }, args.pretty)
    return 0


_TABLE_FIELDS = ("m", "n", "d", "dimX", "delta", "chi",
                 "chi_rational", "sign", "case")


def _cmd_table(args) -> int:
    if args.d_max < 3:
        raise ValueError("need --d-max >= 3")
    results = [euler_mod.chi_closed(m, d - m)
               for d in range(3, args.d_max + 1) for m in range(1, d)]
    records = [_chi_record(res) for res in results]
    if args.csv:
        print(",".join(_TABLE_FIELDS))
        for rec in records:
            print(",".join(str(rec[f]) for f in _TABLE_FIELDS))
    elif args.pretty:
        widths = {f: max(len(f), *(len(str(r[f])) for r in records))
                  for f in _TABLE_FIELDS}
        print("  ".join(f.ljust(widths[f]) for f in _TABLE_FIELDS))
        for rec in records:
            print("  ".join(str(rec[f]).ljust(widths[f]) for f in _TABLE_FIELDS))
    else:
        for rec, res in zip(records, results):
            print(json.dumps(_with_l2(rec, res)))
    return 0


def _cmd_witt(args) -> int:
    form = qforms.DiagonalForm.parse(args.form)
    place = qforms.Place.parse(args.place)
    _emit({"witt": qforms.witt_index(form, place),
           "aniso_dim": qforms.anisotropic_dim(form, place)}, args.pretty)
    return 0


def _cmd_srank(args) -> int:
    rep = euler_mod.s_arithmetic_sign(args.m, args.n, args.primes)
    _emit({
        "m": args.m,
        "n": args.n,
        "S": list(rep.primes),
        "witt": rep.witt_by_place,
        "rank_S": rep.rank_s,
        "rank_Q": rep.rank_rational,
        "sign": rep.sign,
        "ep_vanishes": rep.ep_vanishes,
    }, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _suite_exactq() -> None:
    for j in range(1, 11):
        lhs = (exactq.zeta_even_exact(j)
               * exactq.PiExact(Fraction(1), -2 * j) * exactq.gamma_half(2 * j)
               * exactq.PiExact(Fraction(1), -(2 * j + 1))
               * exactq.gamma_half(2 * j + 1))
        rhs = exactq.PiExact(abs(exactq.zeta_negative_odd(j)), 0)
        assert lhs == rhs, f"functional equation failed at j={j}"
    for ell in (1, 3, 5, 7, 9):
        lhs = (exactq.l_psi_exact_odd(ell)
               * exactq.PiExact(Fraction(1), -2 * ell)
               * exactq.gamma_half(2 * ell))
        rhs = exactq.PiExact(
            Fraction(1, 2 ** ell) * abs(exactq.gen_bernoulli_mod4(ell)) / ell, 0)
        assert lhs == rhs, f"L identity failed at ell={ell}"
    table = {1: Fraction(-1, 2), 3: Fraction(3, 2), 5: Fraction(-25, 2),
             7: Fraction(427, 2), 9: Fraction(-12465, 2)}
    for ell, want in table.items():
        assert exactq.gen_bernoulli_mod4(ell) == want, f"B_psi,{ell}"
    assert exactq.zeta_negative_odd(1) == Fraction(-1, 12)
    assert exactq.zeta_even_exact(2) == exactq.PiExact(Fraction(1, 90), 8)


def _suite_clifford() -> None:
    for d in range(1, 11):
        sig = clifford.Signature(max(1, d - 1), d - max(1, d - 1))
        for blade in range(1 << d):
            card = blade.bit_count()
            el = clifford.CliffordElement.blade(sig, clifford.ZZ, blade)
            want = -1 if (card * (card + 1) // 2) % 2 else 1
            got = el.conjugate().coefficient(blade)
            assert got == want, f"conjugation sign at d={d}, blade={blade:b}"
    rng = random.Random(20260815)
    sig = clifford.Signature(3, 2)
    field = clifford.PrimeField(5)
    for _ in range(200):
        x, y, z = (_random_element(rng, sig, field) for _ in range(3))
        assert (x * y) * z == x * (y * z), "associativity"
    for _ in range(10):
        coeffs = {clifford.blade_from_indices([i, j]): 4 * rng.randint(-3, 3)
                  for i, j in itertools.combinations(range(1, 6), 2)}
        x = clifford.CliffordElement(sig, clifford.ZZ, coeffs)
        g = clifford.clifford_exp(x, 8)
        assert clifford.is_spin_element(g), "exp image not in Spin"
        back = clifford.clifford_log(g, 8)
        want = {b: c % 256 for b, c in coeffs.items() if c % 256}
        assert dict(back.coeffs) == want, "log(exp) != id"
    # dense products at d = 10, large enough for the packed kernel
    sig = clifford.Signature(4, 6)
    for ring, lo, hi in ((clifford.ModularRing(256), 1, 255), (clifford.ZZ, -2 ** 20, 2 ** 20)):
        x, y = (clifford.CliffordElement(sig, ring, {b: rng.randint(lo, hi) for b in range(1 << 10)})
                for _ in range(2))
        z = x * y
        for b in rng.sample(range(1 << 10), 8):
            assert z.coefficient(b) == oracles.product_coefficient(x, y, b), \
                f"dense product over {ring}, blade {b:#x}"


def _random_element(rng, sig, ring):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        blade = rng.randrange(1 << sig.d)
        coeffs[blade] = ring.from_int(rng.randint(-6, 6))
    return clifford.CliffordElement(sig, ring, coeffs)


def _suite_oracles() -> None:
    rng = random.Random(97)
    squarefrees = [x for x in range(-35, 36)
                   if x and all(x % (q * q) for q in (2, 3, 5))]
    for _ in range(60):
        a, b = rng.choice(squarefrees), rng.choice(squarefrees)
        v = rng.choice([None, 2, 3, 5, 7, 11, 13])
        got = qforms.hilbert_symbol(a, b, v)
        want = oracles.hilbert_bruteforce(a, b, v)
        assert got == want, f"Hilbert symbol ({a},{b})_{v}: {got} vs {want}"
    for _ in range(100):
        dim = rng.randint(1, 6)
        f, g = (qforms.DiagonalForm(tuple(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
            for _ in range(dim))) for _ in range(2))
        for v in (None, 2, 3, 5, 7, 11, 13):
            assert qforms.hasse_invariant(f, v) == oracles.hasse_pairwise(f.entries, v), \
                f"Hasse invariant of <{f}> at {v}"
            assert qforms.witt_index(f, v) == oracles.witt_index_peel(f.entries, v), \
                f"Witt index of <{f}> at {v}"
            assert qforms.qp_equivalent(f, g, v) == \
                oracles.qp_equivalent_pairwise(f.entries, g.entries, v), \
                f"equivalence of <{f}> and <{g}> at {v}"
        w = oracles.witt_index_rational_peel(f.entries)
        assert qforms.witt_index_rational(f) == w, f"rational Witt index of <{f}>"
        assert qforms.is_isotropic_rational(f) == (w >= 1), f"rational isotropy of <{f}>"
    for (m, n), p in (((2, 1), 3), ((2, 1), 5), ((2, 2), 3), ((3, 1), 3)):
        desc = ggroups.SpinGroupDescriptor(m, n)
        formula = ggroups.spin_order_fp(desc, p)
        counted = oracles.so_order_bruteforce(qforms.DiagonalForm.pm(m, n), p)
        assert formula == counted, f"order mismatch at ({m},{n}), p={p}"


def _suite_adelic() -> None:
    for d in range(3, 101):
        for m in range(1, d):
            n = d - m
            closed = euler_mod.chi_closed(m, n).value
            if d <= 12:
                approx = euler_mod.adelic_assembly_float(m, n)
                assert abs(approx - closed) <= abs(closed) / 1000, \
                    f"float Euler product off at ({m},{n}): {approx}"
            if m % 2 and n % 2:
                continue
            # d's ledger, once: A_(2i-1)/16^i for pair degree 2i, A_(l-1)/2^(l+1) for row l of 2l
            for i, (e, _, entry) in enumerate(euler_mod.adelic_ledger(m, n) if m <= 2 else (), 1):
                want = Fraction(exactq.zigzag(e - 1), 2 ** (e + 1) if 2 * i == d else 4 ** e)
                assert entry == want, f"ledger row of degree {e} at ({m},{n}): {entry}, not {want}"
            assert closed == euler_mod.adelic_assembly_exact(m, n), f"chi mismatch at ({m},{n})"


_SUITES = {
    "exactq": _suite_exactq,
    "clifford": _suite_clifford,
    "oracles": _suite_oracles,
    "adelic": _suite_adelic,
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        try:
            _SUITES[name]()
        except AssertionError as exc:
            failed = True
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return 3 if failed else 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinchi",
        description="Euler characteristics of level-4 congruence subgroups "
                    "of Spin(m, n) and the local invariants behind them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--pretty", action="store_true",
                       help="indent JSON / align tables")
        return p

    p = add("chi", _cmd_chi, "Euler characteristic of Spin(m,n) at level 4")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--factored", action="store_true",
                   help="print only the factored value")

    p = add("sign", _cmd_sign, "sign of the Euler characteristic")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = add("profile", _cmd_profile, "L2 invariant profile")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = add("compare", _cmd_compare, "profinite commensurability report")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("m2", type=int)
    p.add_argument("n2", type=int)

    p = add("table", _cmd_table, "chi table for all (m,n) with 3 <= d <= d_max")
    p.add_argument("--d-max", type=int, default=10)
    p.add_argument("--csv", action="store_true")

    p = add("witt", _cmd_witt, "Witt index of a diagonal form at a place")
    p.add_argument("form", help='e.g. "1,1,1,1,-1" or "b(4,1)"; b(m,n) needs '
                                f"m + n <= {qforms.PM_RANK_LIMIT}")
    p.add_argument("place", help='prime or "oo"')

    p = add("srank", _cmd_srank, "S-arithmetic rank and Serre sign")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("primes", type=int, nargs="*", default=[])

    p = add("verify", _cmd_verify, "run self-check suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all", *_SUITES])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader left: point stdout at devnull so the last flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
