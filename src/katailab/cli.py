"""Command-line front end: spec parsing, sieve-cache persistence and report
emission.

Subcommands: sieve, density, katai, tk, meanvalue, dist, weyl, ergodic.
Reports are written atomically; every CSV starts with a ``# config:`` comment
carrying the exact experiment configuration (thread count and output paths
are execution details, not experiment identity, so they are excluded and the
output bytes are identical for any --threads).

Exit codes: 0 success, 2 validation error, 3 numeric-budget violation or
out of memory.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import equidist, functions, levelsets, meanvalues, orthogonality, reports
from .constants import Constant
from .sieve import FactorSieve, SieveRangeError
from .summation import checkpoint_grid, checkpoints_upto

SCHEMA_VERSION = 1


def default_cache_dir() -> str:
    env = os.environ.get("KATAILAB_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "katailab")


# one reader per spec family (specs.Family.parse)
parse_set = levelsets.SPELLINGS.parse
parse_function = functions.SPELLINGS.parse
parse_hardy = equidist.SPELLINGS.parse


# -- sieve cache --------------------------------------------------------------


def obtain_sieve(args, needed: int) -> FactorSieve:
    path = getattr(args, "cache", None)
    threads = getattr(args, "threads", 1)
    if path and os.path.exists(path):
        sieve = FactorSieve.load(path, threads=threads)
        if sieve.limit < needed:
            raise ValueError(
                f"cache {path} covers n <= {sieve.limit} but the run needs {needed}"
            )
        return sieve
    # a sieve to 2 answers any n <= 1; the command judges such an n itself
    sieve = FactorSieve.build(max(needed, 2), threads=threads)
    if path:
        sieve.save(path)
    return sieve


def emit(report, command: str, params: dict, args, summary_line: str):
    # what reports embed: stable under --threads and output relocation
    prov = {"command": command, "params": params, "schema_version": SCHEMA_VERSION}
    if getattr(args, "csv", None):
        reports.write_csv(report, prov, args.csv)
    if getattr(args, "json_out", None):
        reports.write_json(report, prov, args.json_out)
    print(summary_line)


# -- subcommands ---------------------------------------------------------------


def cmd_sieve(args):
    out = args.out or os.path.join(default_cache_dir(), f"spf_{args.limit}.spf")
    sieve = FactorSieve.build(args.limit, threads=args.threads)
    sieve.save(out)
    FactorSieve.load(out)  # verify magic + spot check before declaring success
    print(f"sieve limit={args.limit} written to {out}")
    return 0


def cmd_density(args):
    spec = parse_set(args.set)
    checkpoints = checkpoints_upto(checkpoint_grid(args.checkpoints, args.x), args.x, "x")
    sieve = obtain_sieve(args, args.x)
    rep = levelsets.empirical_density(spec, checkpoints, sieve)
    params = {"set": spec.to_json(), "x": args.x, "checkpoints": checkpoints}
    emit(rep, "density", params, args,
         f"density[{spec.name}] at {args.x}: {rep.last_value:.6f} "
         f"(oscillation last decade {rep.max_oscillation_last_decade:.2e})")
    return 0


def cmd_katai(args):
    theta = Constant.parse(args.theta)
    if not theta.is_irrational and not args.negative_control:
        raise ValueError(
            f"theta = {theta} is rational: the correlation hypothesis fails; "
            f"pass --negative-control to run the falsification mode"
        )
    seq = orthogonality.LinearExponential(theta)
    checkpoints = checkpoint_grid(args.checkpoints, args.x)
    if args.correlation:
        p, q = args.correlation
        rep = orthogonality.katai_correlation(seq, p, q, args.x, checkpoints,
                                              threads=args.threads)
        params = {"sequence": seq.to_json(), "p": p, "q": q, "x": args.x,
                  "checkpoints": checkpoints, "negative_control": args.negative_control}
        # the sum runs to the last checkpoint, which may lie past x
        emit(rep, "katai", params, args,
             f"correlation p={p} q={q} at {checkpoints[-1]}: "
             f"|value| = {abs(rep.correlations[-1]):.3e}")
        return 0
    spec = parse_set(args.set)
    sieve = obtain_sieve(args, args.x)
    rep = orthogonality.orthogonality_sum(spec, seq, args.x, checkpoints, sieve,
                                          threads=args.threads)
    params = {"set": spec.to_json(), "sequence": seq.to_json(), "x": args.x,
              "checkpoints": checkpoints, "negative_control": args.negative_control}
    emit(rep, "katai", params, args,
         f"orthogonality[{spec.name}] at {args.x}: {rep.values[-1]:.3e} "
         f"(slope {rep.slope:+.2f})")
    return 0


def cmd_tk(args):
    if args.x is None and not args.x_list:
        raise ValueError("tk needs --x or --x-list")
    xs = sorted(set(args.x_list)) if args.x_list else [args.x]
    # a prime lies in (x, 2x] (Bertrand), so pmax >= 2x puts one above x into P:
    # refused before a sieve to pmax is built, which lists P
    x = min(xs)
    if args.pmax >= 2 * max(x, 1):
        raise ValueError(f"P = primes <= {args.pmax} holds a prime above x = {x}")
    sieve = obtain_sieve(args, max(*xs, args.pmax))
    primes = [int(p) for p in sieve.primes(args.pmax)]
    reps = [orthogonality.turan_kubilius_variance(primes, x, sieve) for x in xs]
    lines = [f"tk x={r.x}: variance={float(r.variance):.6g} m={float(r.m):.6f} "
             f"ratio={r.ratio:.4f}" for r in reps]
    emit(reports.TuranKubiliusTable(reps), "tk", {"pmax": args.pmax, "x_list": xs},
         args, "\n".join(lines))
    return 0


def cmd_meanvalue(args):
    fn = parse_function(args.function)
    checkpoints = checkpoint_grid(args.checkpoints, args.n)
    sieve = obtain_sieve(args, args.n)
    if args.euler_product:
        rep = meanvalues.mean_with_product(fn, args.n, checkpoints, sieve,
                                           prime_cutoff=args.prime_cutoff,
                                           threads=args.threads)
        tail = (f", product {rep.product.real:.7f}{rep.product.imag:+.1e}i "
                f"(tail <= {rep.tail_bound:.1e}, discrepancy {rep.final_discrepancy:.2e})")
    else:
        rep = meanvalues.empirical_mean(fn, args.n, checkpoints, sieve,
                                        threads=args.threads)
        tail = ""
    params = {"function": fn.to_json(), "n": args.n, "checkpoints": checkpoints,
              "euler_product": bool(args.euler_product), "prime_cutoff": args.prime_cutoff}
    m = complex(rep.means[-1])
    emit(rep, "meanvalue", params, args,
         f"mean[{fn.name}] at {args.n}: {m.real:.7f}{m.imag:+.1e}i{tail}")
    return 0


def cmd_dist(args):
    fn = parse_function(args.function)
    if args.series == "cdf":
        lo, hi, k = _thresholds(args.thresholds)
        sieve = obtain_sieve(args, args.n)
        values = np.real(fn.values_upto(args.n, sieve)[1:])
        table = meanvalues.empirical_cdf(values, np.linspace(lo, hi, k))
        rep = reports.CdfReport([t for t, _ in table], [y for _, y in table])
        params = {"function": fn.to_json(), "n": args.n, "series": "cdf",
                  "thresholds": args.thresholds}
        emit(rep, "dist", params, args,
             f"cdf[{fn.name}] at {args.n}: " +
             " ".join(f"F({t:g})={y:.6f}" for t, y in table[:: max(1, len(table) // 5)]))
        return 0
    checkpoints = checkpoints_upto(checkpoint_grid(args.checkpoints, args.y), args.y, "y")
    target = _target(args.target)
    sieve = obtain_sieve(args, args.y)
    params = {"function": fn.to_json(), "series": args.series, "y": args.y,
              "checkpoints": checkpoints, "t": args.t, "target": args.target,
              "tolerance": args.tolerance}
    if args.series == "three":
        if fn.kind != "additive":
            raise ValueError("--series three needs an additive function "
                             "(big_omega or small_omega)")
        rep = reports.ThreeSeriesReport(*meanvalues.three_series(
            fn, args.y, checkpoints, sieve))
        emit(rep, "dist", params, args,
             f"three-series[{fn.name}] at y={args.y}: " +
             " / ".join(f"{s.partial_sums[-1]:.4f}" for s in rep.series()))
        return 0
    if args.series == "halasz":
        rep = meanvalues.halasz_series(fn, args.t, args.y, checkpoints, sieve)
    else:
        rep = levelsets.concentration_scan(fn, target, args.y, checkpoints, sieve,
                                           tolerance=args.tolerance)
    emit(rep, "dist", params, args,
         f"{rep.name} at y={args.y}: {rep.partial_sums[-1]:.6f} "
         f"(advisory slope {rep.slope:+.3f})")
    return 0


def cmd_weyl(args):
    h = parse_hardy(args.hardy)
    if args.dilate:
        p, q = args.dilate
        rep = equidist.pq_dilation_check(h, p, q, args.n, args.kmax, threads=args.threads)
        params = {"hardy": h.to_json(), "p": p, "q": q, "n": args.n, "kmax": args.kmax}
        emit(rep, "weyl", params, args,
             f"dilation ({p},{q}) N={rep.n_points}: D*={rep.dstar:.5f} "
             f"max|W|={rep.max_abs_weyl:.5f}")
        return 0
    spec = parse_set(args.set)
    sieve = obtain_sieve(args, args.sieve_limit or 4 * args.n)
    rep = equidist.ud_test(h, spec, args.n, args.kmax, sieve, threads=args.threads)
    params = {"hardy": h.to_json(), "set": spec.to_json(), "n": args.n, "kmax": args.kmax}
    emit(rep, "weyl", params, args,
         f"ud[{spec.name}] N={rep.n_points}: D*={rep.dstar:.5f} "
         f"max|W|={rep.max_abs_weyl:.5f}")
    return 0


def cmd_ergodic(args):
    spec = parse_set(args.set)
    alpha = Constant.parse(args.alpha)
    sieve = obtain_sieve(args, args.sieve_limit or 4 * args.n)
    if args.mode == "floor":
        h = parse_hardy(args.hardy)
        floors = equidist.floor_sequence(h, spec, args.n, sieve)
        rep = equidist.ergodic_weyl_test(floors, alpha)
        label = f"floor-ergodic[{spec.name}, {h.variant}]"
        params = {"set": spec.to_json(), "alpha": alpha.to_json(),
                  "hardy": h.to_json(), "n": args.n, "mode": "floor"}
    else:
        rep = equidist.total_ergodicity_test(spec, alpha, args.n, sieve,
                                             negative_control=args.negative_control)
        label = f"total-ergodic[{spec.name}]"
        params = {"set": spec.to_json(), "alpha": alpha.to_json(), "n": args.n,
                  "mode": "total", "negative_control": args.negative_control}
    emit(rep, "ergodic", params, args,
         f"{label} alpha={alpha} N={args.n}: {rep.values[-1]:.3e} "
         f"(slope {rep.slope:+.2f})")
    return 0


def _thresholds(text: str) -> tuple[float, float, int]:
    """dist --thresholds lo:hi:count: finite lo and hi, an integer count >= 1."""
    try:
        lo, hi, k = map(finite, text.split(":"))
        if k.is_integer() and k >= 1:
            return lo, hi, int(k)
    except ValueError:
        pass
    raise ValueError(f"--thresholds needs finite lo:hi:count, a whole count >= 1, got {text!r}")


def _target(text: str | None):
    """dist --target re[,im], each finite (1.0 when absent); real when im is 0."""
    try:
        target = complex(*map(finite, text.split(","))) if text else 1.0
    except (TypeError, ValueError):  # complex() takes at most re and im
        raise ValueError(f"--target must be re or re,im, each finite, got {text!r}") from None
    return target.real if target.imag == 0 else target


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    """A comma list of integers; each is read as int(float(t)), so 1e5 works."""
    try:
        return [int(float(t)) for t in text.split(",")]
    except (OverflowError, ValueError) as err:
        raise argparse.ArgumentTypeError(f"not a comma list of finite numbers: {text!r}") from err


# argparse types: a ValueError reads "invalid <type name> value: 'nan'"
def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def nonnegative(text: str) -> float:
    value = finite(text)
    if value < 0:
        raise ValueError(text)
    return value


def _common(sub):
    sub.add_argument("--csv", help="write the report as CSV")
    sub.add_argument("--json", dest="json_out", help="write the report as JSON")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker threads (results are identical for any value)")
    sub.add_argument("--cache", help="sieve cache file (built+saved if missing)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="katailab",
        description="Desk-scale experiments on level sets of multiplicative "
                    "functions, orthogonality criteria, and equidistribution.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("sieve", help="build and persist a smallest-prime-factor table")
    s.add_argument("--limit", type=int, required=True)
    s.add_argument("--out", help="cache path (default: cache dir/spf_<limit>.spf)")
    s.add_argument("--threads", type=int, default=1)

    s = sp.add_parser("density", help="empirical density of a level set")
    s.add_argument("--set", required=True)
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--checkpoints", type=_int_list)
    _common(s)

    s = sp.add_parser("katai", help="orthogonality decay / dilated correlations")
    s.add_argument("--set", default="squarefree")
    s.add_argument("--theta", required=True)
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--checkpoints", type=_int_list)
    s.add_argument("--correlation", nargs=2, type=int, metavar=("P", "Q"),
                   help="report the (p,q) correlation instead of set decay")
    s.add_argument("--negative-control", action="store_true",
                   help="allow rational theta (hypothesis-failure mode)")
    _common(s)

    s = sp.add_parser("tk", help="finite-prime-set variance against its budget")
    s.add_argument("--pmax", type=int, required=True)
    s.add_argument("--x", type=int)
    s.add_argument("--x-list", type=_int_list, help="comma-separated x values")
    _common(s)

    s = sp.add_parser("meanvalue", help="empirical mean, optionally vs Euler product")
    s.add_argument("--function", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--checkpoints", type=_int_list)
    s.add_argument("--euler-product", action="store_true")
    s.add_argument("--prime-cutoff", type=int, default=100_000)
    _common(s)

    s = sp.add_parser("dist", help="value distribution and criterion series")
    s.add_argument("--function", required=True)
    s.add_argument("--series", choices=["cdf", "three", "halasz", "concentration"],
                   default="cdf")
    s.add_argument("--n", type=int, default=10**6, help="range for cdf mode")
    s.add_argument("--thresholds", default="0:1:21", help="lo:hi:count grid")
    s.add_argument("--y", type=int, default=10**5, help="prime cutoff for series")
    s.add_argument("--t", type=finite, default=0.0, help="frequency for halasz series")
    s.add_argument("--target", help="re[,im] target for concentration scans")
    s.add_argument("--tolerance", type=nonnegative, default=0.0)
    s.add_argument("--checkpoints", type=_int_list)
    _common(s)

    s = sp.add_parser("weyl", help="equidistribution report along a level set")
    s.add_argument("--set", default="squarefree")
    s.add_argument("--hardy", required=True)
    s.add_argument("--n", type=_count, required=True, help="number of points")
    s.add_argument("--kmax", type=_count, default=5)
    s.add_argument("--dilate", nargs=2, type=int, metavar=("P", "Q"))
    s.add_argument("--sieve-limit", type=int)
    _common(s)

    s = sp.add_parser("ergodic", help="ergodic-sequence Weyl averages")
    s.add_argument("--set", required=True)
    s.add_argument("--alpha", required=True)
    s.add_argument("--n", type=_count, required=True)
    s.add_argument("--mode", choices=["total", "floor"], default="total")
    s.add_argument("--hardy", default="power:1.5")
    s.add_argument("--sieve-limit", type=int)
    s.add_argument("--negative-control", action="store_true")
    _common(s)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        # looked up on each call: the parser outlives any rebinding of cmd_*
        return globals()[f"cmd_{args.command}"](args)
    except SieveRangeError as err:
        print(f"numeric budget violated: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        print(f"out of memory: {err}" if str(err) else "out of memory", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
