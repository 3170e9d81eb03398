"""Seeded inputs and their reference values, made by the parent process.

The parent process (run.py) never imports katailab: it turns the seed into the
inputs each child passes to the library, plus the values the child checks
the library's outputs against.  The same seed gives the same inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles

HERE = Path(__file__).resolve().parent

# -- sizes ---------------------------------------------------------------------

TABLES_N = 10_000_000
PHASES_N = 125_000
CORRELATION_X = 500_000
PQ_COUNT = 100_000
SWEEP_LIMIT = 10_000_000
SWEEP_X = (100_000, 1_000_000)
THREADS = 2
SPOT_POINTS = 256

HARDY = ("power:1.5", "tlogt", "loggamma", "poly:0,1,sqrt2")
PHASE_SETS = ("squarefree", "big_omega_mod:2,0")
THETAS = ("sqrt2", "sqrt3", "golden", "e", "pi")
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
DENSITY_SETS = ("squarefree", "kfree:3", "big_omega_mod:2,0", "tau_mod:3,1", "abundant")
DECAY_SETS = ("squarefree", "big_omega_mod:2,0", "omega_mod:3,1", "kfree:3", "squarefree")
MEAN_FUNCTIONS = ("mobius", "liouville", "euler_phi_ratio", "euler_phi_ratio",
                  "squarefree_indicator")
BAD_SETS = ("kfree:x", "big_omega_mod:2", "tau_mod:a,b", "nosuchset", "omega_rot:sqrt2")
PER_KIND = 5


def _log_uniform(rng, lo, hi):
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _stratified(rng, k):
    """k sizes in SWEEP_X, one from each of k equal slices of log x, in seeded
    order: every pass covers the whole range, so passes cost about the same."""
    lo, hi = (math.log(v) for v in SWEEP_X)
    u = (np.arange(k) + rng.random(k)) / k
    return [int(round(math.exp(lo + (hi - lo) * v))) for v in rng.permutation(u)]


def _prime_pair(rng):
    p, q = rng.choice(SMALL_PRIMES, size=2, replace=False)
    return int(p), int(q)


# -- tables --------------------------------------------------------------------


def tables(rng, workdir: Path) -> dict:
    n = TABLES_N
    custom_x = n // 10
    # dyadic rule values keep every product exact, so the check is equality
    rule = rng.choice([-1.0, -0.5, -0.25, 0.25, 0.5, 1.0], size=(8, 3)).tolist()
    spot = sorted(int(v) for v in rng.integers(2, n + 1, SPOT_POINTS))
    custom_spot = sorted(int(v) for v in rng.integers(2, custom_x + 1, SPOT_POINTS))

    def custom_value(m):
        out = 1.0
        for p, e in oracles.trial_factor(m):
            out *= rule[p % 8][min(e, 3) - 1]
        return out

    digests = json.loads((HERE / "digests.json").read_text())
    return {
        "n": n, "sieve_limit": n, "threads": THREADS, "prime_cutoff": 100_000, "cdf_points": 21,
        "tk_pmax": 100, "custom_x": custom_x, "custom_rule": rule,
        "spot": {"n": spot, "values": [oracles.arithmetic_at(m) for m in spot]},
        "custom_spot": {"n": custom_spot, "values": [custom_value(m) for m in custom_spot]},
        "digests": digests["tables"] if digests.get("n") == n else {},
    }


# -- phases --------------------------------------------------------------------


def phases(rng, workdir: Path) -> dict:
    n = PHASES_N
    limit = 4 * n
    ref = oracles.arithmetic_tables(limit)
    members = {s: np.nonzero(oracles.set_flags(ref, s))[0] for s in PHASE_SETS}
    frac_count = 4096
    frac_checks = []
    for h in HARDY:
        idx = sorted(int(i) for i in rng.choice(np.arange(1, frac_count), 16, replace=False))
        frac_checks.append({
            "hardy": h, "count": frac_count, "index": idx,
            "expected": [oracles.hardy_frac(h, int(members["squarefree"][i])) for i in idx],
        })
    p, q = _prime_pair(rng)
    pq_n = sorted(int(v) for v in rng.integers(1, PQ_COUNT + 1, 16))
    floor_set = str(rng.choice(PHASE_SETS))
    floor_idx = sorted(int(i) for i in rng.choice(n, 32, replace=False))
    floor_members = [int(members[floor_set][i]) for i in floor_idx]
    correlations = []
    for theta in ("sqrt2", "golden"):
        for _ in range(10):
            a, b = _prime_pair(rng)
            cps = [CORRELATION_X // 100, CORRELATION_X // 10, CORRELATION_X]
            correlations.append({
                "theta": theta, "p": a, "q": b, "checkpoints": cps,
                "expected": [oracles.correlation_modulus(theta, a, b, c) for c in cps],
            })
    return {
        "n": n, "sieve_limit": limit, "threads": THREADS, "kmax": 5,
        "hardy": list(HARDY), "sets": list(PHASE_SETS),
        "dstar_check": {"hardy": "power:1.5", "set": "squarefree", "count": 100_000,
                        "expected": 0.026885, "digits": 6},
        "frac_checks": frac_checks,
        "pq": {"hardy": "power:1.5", "p": p, "q": q, "count": PQ_COUNT, "sample": pq_n,
               "expected": [oracles.dilated_frac("power:1.5", p, q, m) for m in pq_n]},
        "floor": {"hardy": "power:1.5", "set": floor_set, "alpha": str(rng.choice(THETAS)),
                  "count": n, "index": floor_idx,
                  "expected": [math.isqrt(m**3) for m in floor_members]},
        "total": {"set": str(rng.choice(PHASE_SETS)), "alpha": str(rng.choice(THETAS)),
                  "count": n},
        "correlations": correlations,
    }


# -- sweep ---------------------------------------------------------------------


def sweep(rng, workdir: Path) -> dict:
    """Cache size plus the reference tables; requests come per pass."""
    x_max = SWEEP_X[1]
    ref = oracles.arithmetic_tables(x_max)
    arrays = {}
    for s in set(DENSITY_SETS) | set(DECAY_SETS):
        flags = oracles.set_flags(ref, s)
        arrays[f"flags:{s}"] = flags.astype(np.uint8)
        arrays[f"count:{s}"] = np.cumsum(flags, dtype=np.int64)
    for f in set(MEAN_FUNCTIONS):
        arrays[f"sum:{f}"] = np.cumsum(oracles.function_values(ref, f))
    recip = np.zeros(x_max + 1)
    primes = oracles.primes_upto(x_max)
    recip[primes] = 1.0 / primes
    arrays["sum:prime_reciprocals"] = np.cumsum(recip)
    files = {}
    for key, arr in arrays.items():
        path = workdir / (key.replace(":", "_").replace(",", "_") + ".npy")
        np.save(path, arr)
        files[key] = str(path)
    return {"sieve_limit": SWEEP_LIMIT, "threads": THREADS, "reference_files": files,
            "splits": {t: oracles.split_constant(t) for t in THETAS}}


def sweep_pass(rng) -> list:
    """One pass: PER_KIND requests of each kind plus three expected rejections,
    in seeded order.  Paths are filled in by the child ({cache}, {out})."""
    lo, hi = SWEEP_X
    io = ["--cache", "{cache}", "--json", "{out}"]
    reqs = []
    for s, x in zip(DENSITY_SETS, _stratified(rng, PER_KIND)):
        reqs.append({"kind": "density", "set": s,
                     "argv": ["density", "--set", s, "--x", str(x),
                              "--checkpoints", f"{x // 100},{x // 10}", *io]})
    for s, x in zip(DECAY_SETS, _stratified(rng, PER_KIND)):
        theta = str(rng.choice(THETAS))
        reqs.append({"kind": "decay", "set": s, "theta": theta,
                     "argv": ["katai", "--set", s, "--theta", theta, "--x", str(x),
                              "--checkpoints", f"{x // 100},{x // 10}", *io]})
    for x in _stratified(rng, PER_KIND):
        theta = str(rng.choice(THETAS))
        p, q = _prime_pair(rng)
        cps = [x // 100, x // 10, x]
        reqs.append({"kind": "correlation",
                     "expected": [oracles.correlation_modulus(theta, p, q, c) for c in cps],
                     "argv": ["katai", "--theta", theta, "--x", str(x),
                              "--correlation", str(p), str(q),
                              "--checkpoints", f"{x // 100},{x // 10}", *io]})
    for i, (f, x) in enumerate(zip(MEAN_FUNCTIONS, _stratified(rng, PER_KIND))):
        product = f == "euler_phi_ratio" and i == MEAN_FUNCTIONS.index(f)
        extra = ["--euler-product", "--prime-cutoff", "20000"] if product else []
        reqs.append({"kind": "meanvalue", "function": f, "product": product,
                     "argv": ["meanvalue", "--function", f, "--n", str(x),
                              "--checkpoints", f"{x // 100},{x // 10}", *extra, *io]})
    for y in _stratified(rng, PER_KIND):
        f = str(rng.choice(["mobius", "liouville"]))
        reqs.append({"kind": "concentration",
                     "argv": ["dist", "--function", f, "--series", "concentration",
                              "--y", str(y), "--target=-1",
                              "--checkpoints", f"{y // 100},{y // 10}", *io]})
    p, q = _prime_pair(rng)
    big_x = 2**40 // min(p, q) + int(rng.integers(1, 10**6))
    reqs.append({"kind": "reject", "expect_rc": 3,
                 "argv": ["sieve", "--limit", str(2**31 + int(rng.integers(1, 10**6))),
                          "--out", "{out}"]})
    reqs.append({"kind": "reject", "expect_rc": 3,
                 "argv": ["katai", "--theta", str(rng.choice(THETAS)), "--x", str(big_x),
                          "--correlation", str(p), str(q), *io]})
    reqs.append({"kind": "reject", "expect_rc": 2,
                 "argv": ["density", "--set", str(rng.choice(BAD_SETS)),
                          "--x", str(_log_uniform(rng, lo, hi)), *io]})
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


MAKERS = {"tables": tables, "phases": phases, "sweep": sweep}
