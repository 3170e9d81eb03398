"""What a child runs: one workload's set-up, then one batch of checked operations.

An operation is one library call (``tables``, ``phases``) or one CLI request
(``sweep``), followed by the check of its output.  It fails if it raises,
exits with an unexpected code, or fails its check; its latency is the time
of the call alone.  Expected rejections in ``sweep`` count as successes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from collections import Counter
from fractions import Fraction

import numpy as np

import oracles


class Recorder:
    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.exit_codes = Counter()

    def op(self, name, call, check):
        start = time.perf_counter()
        try:
            out = call()
            problem = None
        except Exception as err:  # an operation that raises is a failed operation
            out, problem = None, f"raised {type(err).__name__}: {err}"
        self.latencies.append(time.perf_counter() - start)
        if problem is None:
            try:
                problem = check(out)
            except Exception as err:
                problem = f"check raised {type(err).__name__}: {err}"
        self.attempted += 1
        if problem:
            self.failures.append(f"{name}: {problem}")

    def as_dict(self):
        return {"latencies": self.latencies, "attempted": self.attempted,
                "failed": len(self.failures), "failures": self.failures,
                "digests": self.digests, "exit_codes": dict(self.exit_codes)}


def _first_problem(*problems):
    return next((p for p in problems if p), None)


def _close(got, want, tol, what):
    bad = [(g, w) for g, w in zip(got, want) if not abs(g - w) <= tol]
    if len(got) != len(want) or bad:
        return f"{what}: {len(bad)} of {len(want)} values off by more than {tol:g} {bad[:2]}"
    return None


# -- tables --------------------------------------------------------------------


def tables_setup(inp, workdir):
    from katailab.sieve import FactorSieve

    return FactorSieve.build(inp["sieve_limit"], threads=inp["threads"])


def tables_batch(inp, sieve, rec, workdir):
    from katailab import functions, levelsets, meanvalues, orthogonality, reports
    from katailab.summation import geometric_checkpoints

    n, threads = inp["n"], inp["threads"]
    cps = geometric_checkpoints(n)
    rendered = {}

    def emit(name, report):
        data = reports.render_json(report, {"benchmark": "tables", "op": name, "n": n})
        rendered[name] = data
        digest = hashlib.sha256(data).hexdigest()
        rec.digests[name] = digest
        want = inp["digests"].get(name)
        if digest != want:
            return f"report digest {digest[:16]} differs from the recorded {str(want)[:16]}"
        return None

    def spot(table, key):
        values = sieve.table(table)
        got = [int(values[m]) for m in inp["spot"]["n"]]
        want = [int(v[key]) for v in inp["spot"]["values"]]
        return _close(got, want, 0, f"{table} table at sampled n")

    def mean(fn, threads):
        return lambda: meanvalues.mean_with_product(
            fn(), n, cps, sieve, prime_cutoff=inp["prime_cutoff"], threads=threads)

    rec.op("phi_mean_product", mean(functions.euler_phi_ratio, threads),
           lambda r: _first_problem(
               None if r.final_discrepancy < 2e-3
               else f"|mean - Euler product| = {r.final_discrepancy:.3g}",
               emit("phi_mean_product", r), spot("phi", "phi")))
    rec.op("phi_mean_threads1", mean(functions.euler_phi_ratio, 1),
           lambda r: None if reports.render_json(
               r, {"benchmark": "tables", "op": "phi_mean_product", "n": n})
           == rendered.get("phi_mean_product")
           else f"report bytes with threads=1 differ from threads={threads}")
    rec.op("mobius_mean",
           lambda: meanvalues.empirical_mean(functions.mobius(), n, cps, sieve, threads=threads),
           lambda r: _first_problem(emit("mobius_mean", r), spot("mobius", "mobius")))
    rec.op("liouville_mean",
           lambda: meanvalues.empirical_mean(functions.liouville(), n, cps, sieve,
                                             threads=threads),
           lambda r: _first_problem(emit("liouville_mean", r),
                                    spot("big_omega", "big_omega")))
    rec.op("squarefree_density",
           lambda: levelsets.empirical_density(levelsets.Squarefree(), cps, sieve),
           lambda r: _first_problem(
               _close([r.last_value], [6 / math.pi**2], 5e-4, "squarefree density"),
               emit("squarefree_density", r), spot("squarefree", "squarefree")))
    rec.op("abundant_density",
           lambda: levelsets.empirical_density(levelsets.Abundant(), cps, sieve),
           lambda r: _first_problem(emit("abundant_density", r), spot("sigma", "sigma")))
    rec.op("tau_mod_density",
           lambda: levelsets.empirical_density(levelsets.TauMod(3, 1), cps, sieve),
           lambda r: _first_problem(emit("tau_mod_density", r), spot("tau", "tau")))

    def cdf():
        values = np.real(functions.euler_phi_ratio().values_upto(n, sieve)[1:])
        grid = meanvalues.empirical_cdf(values, np.linspace(0.0, 1.0, inp["cdf_points"]))
        return reports.CdfReport([t for t, _ in grid], [y for _, y in grid])

    rec.op("phi_cdf", cdf, lambda r: emit("phi_cdf", r))

    rule = inp["custom_rule"]
    custom = functions.custom(lambda p, m: rule[p % 8][min(m, 3) - 1])
    rec.op("custom_bulk_values",
           lambda: functions.bulk_values(custom, inp["custom_x"], sieve),
           lambda v: _close([float(np.real(v[m])) for m in inp["custom_spot"]["n"]],
                            inp["custom_spot"]["values"], 0.0, "custom rule at sampled n"))

    primes = [int(p) for p in oracles.primes_upto(inp["tk_pmax"])]
    rec.op("tk_variance",
           lambda: orthogonality.turan_kubilius_variance(primes, n, sieve),
           lambda r: _first_problem(
               None if r.variance == _tk_variance(primes, n)
               else "variance differs from the exact moment formula",
               emit("tk_variance", r)))


def _tk_variance(primes, x):
    """sum_{n<=x} (w(n) - m)^2 from the moments S1 = sum_p [x/p] and
    S2 = S1 + sum_{p != q} [x/(pq)]."""
    s1 = sum(x // p for p in primes)
    s2 = s1 + sum(x // (p * q) for p in primes for q in primes if p != q)
    m = sum(Fraction(1, p) for p in primes)
    return s2 - 2 * m * s1 + x * m * m


# -- phases --------------------------------------------------------------------


def phases_setup(inp, workdir):
    from katailab.sieve import FactorSieve

    return FactorSieve.build(inp["sieve_limit"], threads=inp["threads"])


def _discrepancy_problem(r, count):
    if r.n_points != count:
        return f"N = {r.n_points}, expected {count}"
    if not 0.0 < r.dstar < 1.0:
        return f"D* = {r.dstar} outside (0, 1)"
    if not all(abs(complex(w)) <= 1.0 + 1e-12 for w in r.weyl):
        return "a Weyl sum has modulus above 1"
    return None


def _decay_problem(r, limit=1.0):
    if not all(0.0 <= v <= limit for v in r.values):
        return f"a Weyl average lies outside [0, {limit}]"
    return None


def _frac_problem(got, want, what):
    d = [oracles.frac_distance(g, w) for g, w in zip(got, want)]
    if len(got) != len(want) or max(d) > 1e-12:
        return f"{what}: distance {max(d):.3g} to the 40-digit value exceeds 1e-12"
    return None


def phases_batch(inp, sieve, rec, workdir):
    from katailab import cli, equidist, orthogonality, reports
    from katailab.constants import Constant

    n, kmax = inp["n"], inp["kmax"]
    ops = []

    def add(name, call, check):
        ops.append((name, call, check))

    def emit(name, report):
        reports.render_json(report, {"benchmark": "phases", "op": name})

    def checked(name, problem):
        return lambda r: problem(r) or emit(name, r)

    for h in inp["hardy"]:
        for s in inp["sets"]:
            name = f"ud[{h}|{s}]"
            add(name,
                lambda h=h, s=s: equidist.ud_test(cli.parse_hardy(h), cli.parse_set(s),
                                                  n, kmax, sieve),
                checked(name, lambda r: _discrepancy_problem(r, n)))

    d = inp["dstar_check"]
    add("ud_dstar_oracle",
        lambda: equidist.ud_test(cli.parse_hardy(d["hardy"]), cli.parse_set(d["set"]),
                                 d["count"], kmax, sieve),
        checked("ud_dstar_oracle", lambda r: _first_problem(
            _discrepancy_problem(r, d["count"]),
            None if round(r.dstar, d["digits"]) == d["expected"]
            else f"D* = {r.dstar:.8f}, oracle value {d['expected']}")))

    for fc in inp["frac_checks"]:
        add(f"fractional_parts[{fc['hardy']}]",
            lambda fc=fc: equidist.fractional_parts_along(
                cli.parse_hardy(fc["hardy"]), cli.parse_set("squarefree"),
                fc["count"], sieve),
            lambda seq, fc=fc: _frac_problem(
                [float(seq.values[i]) for i in fc["index"]], fc["expected"],
                f"fractional parts of {fc['hardy']}"))

    pq = inp["pq"]
    h = cli.parse_hardy(pq["hardy"])
    add("pq_dilation",
        lambda: equidist.pq_dilation_check(h, pq["p"], pq["q"], pq["count"], kmax),
        checked("pq_dilation", lambda r: _first_problem(
            _discrepancy_problem(r, pq["count"]),
            _frac_problem(h.dilated_difference_parts(
                pq["p"], pq["q"], np.asarray(pq["sample"], dtype=np.int64)).tolist(),
                pq["expected"], "dilated differences"))))

    fl = inp["floor"]
    floors = {}

    def floor_test():
        floors["m"] = equidist.floor_sequence(cli.parse_hardy(fl["hardy"]),
                                              cli.parse_set(fl["set"]), fl["count"], sieve)
        return equidist.ergodic_weyl_test(floors["m"], Constant.parse(fl["alpha"]))

    add("floor_ergodic", floor_test,
        checked("floor_ergodic", lambda r: _first_problem(
            _decay_problem(r),
            _close([int(floors["m"][i]) for i in fl["index"]], fl["expected"], 0,
                   "floors of t^(3/2)"))))

    te = inp["total"]
    add("total_ergodic",
        lambda: equidist.total_ergodicity_test(cli.parse_set(te["set"]),
                                               Constant.parse(te["alpha"]),
                                               te["count"], sieve),
        checked("total_ergodic", lambda r: _decay_problem(r) or (
            None if r.values[-1] < 0.05 else f"Weyl average {r.values[-1]:.3g} >= 0.05")))

    for c in inp["correlations"]:
        seq = orthogonality.LinearExponential(Constant.parse(c["theta"]))
        name = f"correlation[{c['theta']}|{c['p']},{c['q']}]"
        add(name,
            lambda seq=seq, c=c: orthogonality.katai_correlation(
                seq, c["p"], c["q"], c["checkpoints"][-1], c["checkpoints"]),
            checked(name, lambda r, c=c: _close(
                [abs(complex(v)) for v in r.correlations], c["expected"], 1e-9,
                "correlation against the closed form")))

    # seeded interleaving spreads each kind of operation over the whole batch
    for i in np.random.default_rng(inp["order_seed"]).permutation(len(ops)):
        rec.op(*ops[i])


# -- sweep ---------------------------------------------------------------------


def _cli(argv):
    from katailab import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def sweep_setup(inp, workdir):
    cache = str(workdir / "cache.spf")
    rc = _cli(["sieve", "--limit", str(inp["sieve_limit"]), "--out", cache,
               "--threads", str(inp["threads"])])
    if rc != 0:
        raise RuntimeError(f"katailab sieve exited with {rc}")
    return cache


def sweep_batch(inp, cache, rec, workdir):
    refs = {k: np.load(p, mmap_mode="r") for k, p in inp["reference_files"].items()}
    out = workdir / f"report-{os.getpid()}.json"
    for i, req in enumerate(inp["requests"]):
        argv = [a.format(cache=cache, out=out) for a in req["argv"]]
        if out.exists():
            out.unlink()

        def call(argv=argv):
            rc = _cli(argv)
            rec.exit_codes[str(rc)] += 1
            return rc

        rec.op(f"{req['kind']}#{i}", call,
               lambda rc, req=req: _request_problem(req, rc, out, refs, inp["splits"]))
        if out.exists():
            out.unlink()


def _request_problem(req, rc, out, refs, splits):
    if req["kind"] == "reject":
        if rc != req["expect_rc"]:
            return f"exit {rc}, expected {req['expect_rc']}"
        return "a rejected request wrote a report" if out.exists() else None
    if rc != 0:
        return f"exit {rc}"
    report = json.loads(out.read_text())
    rows = report["series"]
    kind = req["kind"]
    if kind == "density":
        count = refs[f"count:{req['set']}"]
        return _close([r["count_ratio"] for r in rows],
                      [int(count[r["x"]]) / r["x"] for r in rows], 0.0, "density")
    if kind == "decay":
        want = oracles.decay_values(refs[f"flags:{req['set']}"], splits[req["theta"]],
                                    [r["x"] for r in rows])
        return _close([r["value"] for r in rows], want, 1e-9, "decay profile")
    if kind == "correlation":
        return _close([r["value"] for r in rows], req["expected"], 1e-9,
                      "correlation against the closed form")
    if kind == "meanvalue":
        total = refs[f"sum:{req['function']}"]
        problem = _close([r["re_mean"] for r in rows] + [r["im_mean"] for r in rows],
                         [float(total[r["x"]]) / r["x"] for r in rows] + [0.0] * len(rows),
                         1e-12, "running mean")
        if req["product"] and not problem:
            gap = report["summary"]["final_discrepancy"]
            problem = None if gap < 2e-3 else f"|mean - Euler product| = {gap:.3g}"
        return problem
    if kind == "concentration":
        total = refs["sum:prime_reciprocals"]
        return _close([r["partial_sum"] for r in rows],
                      [float(total[r["y"]]) for r in rows], 1e-12, "sum of 1/p")
    return f"unknown request kind {kind!r}"


WORKLOADS = {
    "tables": (tables_setup, tables_batch),
    "phases": (phases_setup, phases_batch),
    "sweep": (sweep_setup, sweep_batch),
}
