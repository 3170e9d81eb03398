"""CLI subcommands, report files, provenance, and thread determinism."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from katailab import cli, equidist, reports
from katailab import functions as fns
from katailab.cli import main, parse_function, parse_hardy, parse_set
from katailab.constants import Constant, rational
from katailab.equidist import (
    ergodic_weyl_test,
    floor_sequence,
    log_gamma,
    polynomial,
    power,
    pq_dilation_check,
    t_log_t,
    total_ergodicity_test,
    ud_test,
)
from katailab.levelsets import (
    Abundant,
    OmegaMod,
    Squarefree,
    concentration_scan,
    empirical_density,
)
from katailab.meanvalues import empirical_mean, halasz_series, seminorm_l1, three_series
from katailab.sieve import FactorSieve


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "spf_1e6.spf"
    FactorSieve.build(1_000_000).save(path)
    return str(path)


def run(argv):
    return main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    return config, lines[1:]


def test_sieve_command_writes_valid_cache(tmp_path):
    out = tmp_path / "c.spf"
    assert run(["sieve", "--limit", "100000", "--out", str(out)]) == 0
    assert out.read_bytes()[:8] == b"KATAISV2"
    assert FactorSieve.load(out).limit == 100_000


def test_sieve_default_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("KATAILAB_CACHE_DIR", str(tmp_path / "kd"))
    assert run(["sieve", "--limit", "1000"]) == 0
    assert (tmp_path / "kd" / "spf_1000.spf").exists()


def test_density_squarefree_csv(tmp_path, cache):
    out = tmp_path / "density.csv"
    code = run(["density", "--set", "squarefree", "--x", "1000000",
                "--cache", cache, "--csv", str(out)])
    assert code == 0
    config, lines = read_csv(out)
    assert config["command"] == "density"
    assert config["params"]["set"] == {"variant": "squarefree"}
    header, *rows = lines
    assert header == "x,count_ratio"
    final = float(rows[-1].split(",")[1])
    assert abs(final - 0.6079271) < 5e-4


def test_density_json_report(tmp_path, cache):
    out = tmp_path / "density.json"
    run(["density", "--set", "big_omega_mod:2,0", "--x", "100000",
         "--cache", cache, "--json", str(out)])
    obj = json.loads(out.read_text())
    assert set(obj) == {"config", "series", "summary"}
    assert obj["summary"]["last_value"] == obj["series"][-1]["count_ratio"]


def test_katai_decay_csv(tmp_path, cache):
    out = tmp_path / "katai.csv"
    code = run(["katai", "--set", "squarefree", "--theta", "sqrt2",
                "--x", "1000000", "--cache", cache, "--csv", str(out)])
    assert code == 0
    config, lines = read_csv(out)
    assert lines[0] == "x,value,reference,slope"
    final = float(lines[-1].split(",")[1])
    assert final < 0.005


def test_katai_rational_theta_needs_flag(cache):
    assert run(["katai", "--set", "squarefree", "--theta", "0.5",
                "--x", "10000", "--cache", cache]) == 2
    assert run(["katai", "--set", "squarefree", "--theta", "0.5", "--x", "10000",
                "--cache", cache, "--negative-control"]) == 0


def test_katai_correlation_mode(tmp_path, cache):
    out = tmp_path / "corr.csv"
    code = run(["katai", "--theta", "sqrt2", "--x", "100000",
                "--correlation", "2", "3", "--csv", str(out), "--cache", cache])
    assert code == 0
    _, lines = read_csv(out)
    x, value, reference, _ = lines[-1].split(",")
    assert abs(float(value) - float(reference)) < 1e-9


def test_tk_command(tmp_path, cache):
    out = tmp_path / "tk.csv"
    code = run(["tk", "--pmax", "100", "--x-list", "10000,100000",
                "--cache", cache, "--csv", str(out)])
    assert code == 0
    _, lines = read_csv(out)
    ratio = float(lines[-1].split(",")[-1])
    assert ratio <= 2.0


def test_tk_x_list_writes_one_row_per_x(tmp_path, cache):
    out, one = tmp_path / "tk.json", tmp_path / "one.json"
    assert run(["tk", "--pmax", "30", "--x-list", "100000,1000,10000",
                "--cache", cache, "--json", str(out)]) == 0
    assert run(["tk", "--pmax", "30", "--x", "10000", "--cache", cache,
                "--json", str(one)]) == 0
    table, single = json.loads(out.read_text()), json.loads(one.read_text())
    assert [row["x"] for row in table["series"]] == [1000, 10000, 100000]
    assert table["series"][1] == single["series"][0]
    assert table["summary"]["x"] == 100000


def test_checkpoints_above_x_exit_2(cache, capsys):
    cases = [
        (["meanvalue", "--function", "mobius", "--n", "100000",
          "--checkpoints", "50000,200000"], "N = 100000, got 200000"),
        (["katai", "--set", "squarefree", "--theta", "sqrt2", "--x", "100000",
          "--checkpoints", "200000"], "x = 100000, got 200000"),
        (["density", "--set", "squarefree", "--x", "100000",
          "--checkpoints", "5000,200000"], "x = 100000, got 200000"),
    ]
    for argv, tail in cases:
        assert run(argv + ["--cache", cache]) == 2
        assert capsys.readouterr().err == f"error: checkpoints must be <= {tail}\n"
    # rejected before any sieve is built, not by the sieve's range check
    assert run(["density", "--set", "squarefree", "--x", "1000", "--checkpoints", "2000"]) == 2
    assert capsys.readouterr().err == "error: checkpoints must be <= x = 1000, got 2000\n"


def test_correlation_summary_names_its_checkpoint(tmp_path, cache, capsys):
    # the correlation sum runs to the last checkpoint, also past x
    base = ["katai", "--theta", "sqrt2", "--x", "1000", "--correlation", "2", "3",
            "--cache", cache]
    for extra, at in (([], 1000), (["--checkpoints", "500,500000"], 500000)):
        out = tmp_path / "corr.json"
        assert run(base + extra + ["--json", str(out)]) == 0
        last = json.loads(out.read_text())["series"][-1]
        assert last["x"] == at
        assert capsys.readouterr().out == (f"correlation p=2 q=3 at {at}: "
                                           f"|value| = {last['value']:.3e}\n")


def test_meanvalue_with_product(tmp_path, cache):
    out = tmp_path / "mean.json"
    code = run(["meanvalue", "--function", "euler_phi_ratio", "--n", "1000000",
                "--euler-product", "--prime-cutoff", "100000",
                "--cache", cache, "--json", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert abs(obj["summary"]["final_mean"]["re"] - 0.6079271) < 1e-3
    assert obj["summary"]["tail_bound"] >= 0


def test_dist_cdf_mode(tmp_path, cache):
    out = tmp_path / "cdf.csv"
    code = run(["dist", "--function", "euler_phi_ratio", "--n", "100000",
                "--thresholds", "0:1:11", "--cache", cache, "--csv", str(out)])
    assert code == 0
    _, lines = read_csv(out)
    ys = [float(r.split(",")[1]) for r in lines[1:]]
    assert ys == sorted(ys)


def test_dist_three_series(cache):
    assert run(["dist", "--function", "big_omega", "--series", "three",
                "--y", "10000", "--cache", cache]) == 0
    assert run(["dist", "--function", "mobius", "--series", "three",
                "--y", "10000", "--cache", cache]) == 2  # not additive


def test_dist_concentration(cache, capsys):
    code = run(["dist", "--function", "liouville", "--series", "concentration",
                "--target", "-1", "--y", "100", "--checkpoints", "100",
                "--cache", cache])
    assert code == 0
    out = capsys.readouterr().out
    assert "1.8028" in out  # sum of 1/p over primes <= 100


def test_weyl_command(tmp_path, cache):
    out = tmp_path / "weyl.csv"
    code = run(["weyl", "--set", "big_omega_mod:2,0", "--hardy", "poly:0,1,sqrt2",
                "--n", "10000", "--kmax", "3", "--sieve-limit", "100000",
                "--cache", cache, "--csv", str(out)])
    assert code == 0
    _, lines = read_csv(out)
    assert lines[0] == "N,k,re_W,im_W,abs_W,Dstar"
    assert len(lines) == 4  # header + k = 1..3


def test_weyl_dilation_mode(cache):
    assert run(["weyl", "--hardy", "power:1.5", "--dilate", "2", "3",
                "--n", "10000", "--kmax", "2", "--cache", cache]) == 0


def test_weyl_threads_take_effect_and_keep_the_bytes(tmp_path, cache, monkeypatch):
    seen = []
    sums = equidist.checkpoint_sums

    def recording(values_of, checkpoints, threads=1):
        seen.append(threads)
        return sums(values_of, checkpoints, threads=threads)

    monkeypatch.setattr(equidist, "checkpoint_sums", recording)
    # N > 2^16: the Weyl sums span several chunks, so two threads split them
    for mode in (["--set", "squarefree"], ["--dilate", "2", "3"]):
        outs = []
        for threads in (1, 2):
            out = tmp_path / f"weyl_{mode[0]}_{threads}.json"
            assert run(["weyl", *mode, "--hardy", "power:1.5", "--n", "150000",
                        "--threads", str(threads), "--cache", cache,
                        "--json", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], mode
    assert seen == [1, 2, 1, 2]


def test_ergodic_modes(cache):
    assert run(["ergodic", "--set", "big_omega_mod:2,0", "--alpha", "golden",
                "--n", "10000", "--cache", cache]) == 0
    assert run(["ergodic", "--set", "squarefree", "--alpha", "0.5",
                "--n", "10000", "--cache", cache]) == 2
    assert run(["ergodic", "--set", "squarefree", "--alpha", "0.5", "--n", "10000",
                "--negative-control", "--cache", cache]) == 0
    assert run(["ergodic", "--set", "squarefree", "--alpha", "0.5", "--mode", "floor",
                "--hardy", "power:1.5", "--n", "10000", "--cache", cache]) == 0


def test_exit_codes():
    assert run(["density", "--set", "nonsense", "--x", "100"]) == 2
    assert run(["nope"]) == 2  # unknown subcommand: usage text, exit 2
    assert run(["weyl", "--hardy", "poly:0,sqrt2", "--set", "all",
                "--n", "100", "--unknown-flag"]) == 2


@pytest.mark.parametrize("argv,code,err", [pytest.param(*case, id=" ".join(case[0])) for case in [
    (["meanvalue", "--function", "mobius", "--n", "1"], 0, ""),
    (["tk", "--pmax", "10", "--x", "0"], 2, "error: P = primes <= 10 holds a prime above x = 0\n"),
    (["katai", "--theta", "sqrt2", "--x", "1"], 0, ""),
    (["dist", "--function", "mobius", "--series", "cdf", "--n", "1"], 0, ""),
]])
def test_sizes_below_two_run_or_exit_2(argv, code, err, capsys):
    # a sieve to 2 answers n <= 1: no size below 2 is a numeric-budget exit 3
    assert run(argv) == code
    assert capsys.readouterr().err == err


def test_perfect_square_sqrt_constant_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "obtain_sieve", lambda *a: pytest.fail("sieve requested"))
    assert run(["weyl", "--hardy", "power:sqrt4", "--n", "100"]) == 2
    assert "sqrt(4) is 2; use a rational constant" in capsys.readouterr().err


def test_tk_rejects_an_empty_prime_set(cache, capsys):
    assert run(["tk", "--pmax", "-5", "--x", "1000", "--cache", cache]) == 2
    assert "prime set must be nonempty" in capsys.readouterr().err


def test_tk_without_a_size_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "obtain_sieve", lambda *a: pytest.fail("sieve requested"))
    assert run(["tk", "--pmax", "10"]) == 2
    err = capsys.readouterr().err
    assert "--x" in err and "--x-list" in err


def test_tk_refuses_a_prime_above_x_before_building_the_sieve(monkeypatch, capsys):
    monkeypatch.setattr(cli, "obtain_sieve", lambda *a: pytest.fail("sieve requested"))
    assert run(["tk", "--pmax", "2000000000", "--x-list", "100,1000"]) == 2
    assert capsys.readouterr().err == (
        "error: P = primes <= 2000000000 holds a prime above x = 100\n")


def test_weyl_and_ergodic_reject_sizes_below_one(monkeypatch, capsys):
    monkeypatch.setattr(cli, "obtain_sieve", lambda *a: pytest.fail("sieve requested"))
    cases = [
        (["weyl", "--hardy", "power:1.5", "--n", "0"], "--n"),
        (["weyl", "--hardy", "power:1.5", "--dilate", "2", "3", "--n", "-3"], "--n"),
        (["weyl", "--hardy", "power:1.5", "--n", "100", "--kmax", "0"], "--kmax"),
        (["ergodic", "--set", "squarefree", "--alpha", "golden", "--n", "0"], "--n"),
    ]
    for argv, flag in cases:
        assert run(argv) == 2
        assert f"argument {flag}: must be >= 1, got {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("p,q", [(0, 3), (-2, 3), (3, 0)])
def test_dilation_below_one_exits_2_before_any_phase(p, q, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        assert run(["weyl", "--hardy", "power:1.5", "--n", "10",
                    "--dilate", str(p), str(q)]) == 2
    assert capsys.readouterr().err == (
        f"error: dilation check needs distinct p, q >= 1, got p={p} q={q}\n")


def test_too_small_sieve_limit_exits_2(capsys):
    for argv in (["weyl", "--hardy", "power:1.5"], ["ergodic", "--alpha", "golden"]):
        assert run(argv + ["--set", "squarefree", "--n", "100000",
                           "--sieve-limit", "1000"]) == 2
        assert capsys.readouterr().err == (
            "error: set has only 608 members up to the sieve limit 1000, "
            "100000 requested\n")


def test_memory_error_exits_3(monkeypatch, capsys):
    for err, line in ((MemoryError("Unable to allocate 8.00 GiB"),
                       "out of memory: Unable to allocate 8.00 GiB\n"),
                      (MemoryError(), "out of memory\n")):
        def fail(args, err=err):
            raise err

        monkeypatch.setattr(cli, "cmd_tk", fail)
        assert run(["tk", "--pmax", "10", "--x", "100"]) == 3
        assert capsys.readouterr().err == line


def test_exit_code_numeric_budget(cache):
    # x beyond the cache limit is a budget violation, not a parse error
    code = run(["density", "--set", "squarefree", "--x", "10000000",
                "--cache", cache])
    assert code == 2  # cache too small is caught as validation
    code = run(["katai", "--theta", "sqrt2", "--x", str(2**40),
                "--correlation", "2", "10000019", "--cache", cache])
    assert code == 3


@pytest.mark.parametrize("argv, row", [
    (["--set", "squarefree", "--hardy", "power:10.5", "--n", "100000"], "hardy"),
    (["--hardy", "power:1.5", "--n", "1000", "--dilate", "2", str(2**53 + 1)], "argument"),
    (["--hardy", "poly:0,sqrt2", "--n", "10", "--dilate", "2", str(2**62)], "int64"),
    (["--hardy", "poly:0,sqrt2", "--n", "10", "--dilate", "2", str(2**55 + 3)], "argument"),
    (["--hardy", "power:1.5", "--n", "10", "--dilate", "2", str(10**30)], "int64"),
])
def test_phases_past_a_budget_exit_3(argv, row, cache, capsys):
    # each of these once exited 0 with wrong phases, or ended in a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        assert run(["weyl", *argv, "--cache", cache]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric budget violated: ") and err.count("\n") == 1
    assert f"the {row} budget" in err


def test_negative_correlation_prime_exits_2(capsys):
    # a negative p would pass a bare x*max(p,q) check and wrap p*n in int64
    assert run(["katai", "--theta", "sqrt2", "--x", "1000000",
                "--correlation", "-10000000000000", "3"]) == 2
    assert "p, q >= 1" in capsys.readouterr().err


def test_csv_determinism_across_threads(tmp_path, cache):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["density", "--set", "abundant", "--x", "300000", "--cache", cache]
    assert run(base + ["--csv", str(a), "--threads", "1"]) == 0
    assert run(base + ["--csv", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    base = ["katai", "--set", "squarefree", "--theta", "sqrt2", "--x", "200000",
            "--cache", cache]
    assert run(base + ["--csv", str(c), "--threads", "1"]) == 0
    assert run(base + ["--csv", str(d), "--threads", "3"]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_tables_built_on_two_threads_keep_the_bytes(tmp_path, monkeypatch):
    # the sieve, built or loaded from --cache, takes --threads, so past 2^20
    # its phi and sigma tables are built band by band on two threads
    cache = tmp_path / "c.spf"
    assert run(["sieve", "--limit", "1100000", "--out", str(cache)]) == 0
    sieves, obtain = [], cli.obtain_sieve
    monkeypatch.setattr(cli, "obtain_sieve", lambda *a: sieves.append(obtain(*a)) or sieves[-1])
    for argv in (["meanvalue", "--function", "euler_phi_ratio", "--n", "1100000"],
                 ["density", "--set", "abundant", "--x", "1100000"]):
        outs = []
        for threads, source in itertools.product(("1", "2"), ([], ["--cache", str(cache)])):
            out = tmp_path / f"{argv[0]}_{threads}_{len(source)}.json"
            assert run([*argv, *source, "--threads", threads, "--json", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs == outs[:1] * 4, argv[0]
    assert [s.threads for s in sieves] == [1, 1, 2, 2] * 2


def test_atomic_write_leaves_no_temp_files(tmp_path, cache):
    out = tmp_path / "x.csv"
    run(["density", "--set", "squarefree", "--x", "10000", "--cache", cache,
         "--csv", str(out)])
    FactorSieve.build(1000).save(tmp_path / "c.spf")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.spf", "x.csv"]


def test_parse_set_accepts_raw_json(sieve_small, tmp_path, cache):
    spec = parse_set("big_omega_rot:sqrt2,0,0.5")
    clone = parse_set(json.dumps(spec.to_json()))
    for n in range(1, 300):
        assert (clone.contains(n, sieve_small).member
                == spec.contains(n, sieve_small).member)
    out = tmp_path / "rot.csv"
    assert run(["density", "--set", json.dumps(spec.to_json()), "--x", "100000",
                "--cache", cache, "--csv", str(out)]) == 0
    config, _ = read_csv(out)
    assert config["params"]["set"] == spec.to_json()


def test_parsers_cover_spec_spellings(sieve_small):
    for text in ("squarefree", "kfree:3", "omega_mod:3,1", "big_omega_mod:2,0",
                 "tau_mod:4,1", "abundant", "deficient", "phi_below:0.5",
                 "omega_rot:sqrt2,0,0.5", "big_omega_rot:golden,0.25,0.75", "all"):
        spec = parse_set(text)
        spec.contains(12, sieve_small)
    for text in ("mobius", "liouville", "euler_phi_ratio", "sigma", "tau",
                 "big_omega", "small_omega", "squarefree_indicator", "one",
                 "dirichlet:4,1", "archimedean:1.5", "lambda_xi:sqrt2",
                 "kappa_xi:0.25", "mu_xi:golden"):
        fn = parse_function(text)
        fn.eval(12, sieve_small)
    for text in ("power:1.5", "power:sqrt2", "poly:0,1,sqrt2", "logpow:2.5",
                 "tlogt", "toverlogt", "loggamma"):
        h = parse_hardy(text)
        h.eval(4.0)


def _pinned_reports(small, mid):
    def three(a_of_p, y, cps, sieve):
        return reports.ThreeSeriesReport(*three_series(a_of_p, y, cps, sieve))

    return {
        "halasz_xi": lambda: halasz_series(fns.lambda_xi(Constant("golden")), 1.5, 100_000,
                                           [10, 1000, 50_000, 200_000], mid),
        "halasz_liouville": lambda: halasz_series(fns.liouville(), 0.0, 10_000,
                                                  [1, 100, 10_000], small),
        "three_log": lambda: three(lambda p: math.log(1 - 1 / p) * (1 + p % 3), 100_000,
                                   [2, 1000, 100_000], mid),
        "three_omega": lambda: three(lambda p: 1.0, 10_000, [10, 10_000, 20_000], small),
        "concentration": lambda: concentration_scan(fns.liouville(), -1, 100_000,
                                                    [10, 1000, 10_000, 100_000], mid),
        "concentration_tol": lambda: concentration_scan(
            fns.lambda_xi(Constant("sqrt", 2)), 1.0, 10_000, [5, 10_000], small, tolerance=0.5),
        "density_abundant": lambda: empirical_density(Abundant(), [1, 10, 1000, 100_000], mid),
        "density_omega": lambda: empirical_density(OmegaMod(3, 1, "small_omega"),
                                                   [100, 100, 7], small),
        "seminorm_phi": lambda: seminorm_l1(fns.euler_phi_ratio(), 100_000, [10, 1000], mid),
        "mean_liouville": lambda: empirical_mean(fns.liouville(), 100_000, [10, 1000], mid,
                                                 threads=2),
        "total_golden": lambda: total_ergodicity_test(Squarefree(), Constant("golden"),
                                                      20_000, mid),
        "total_integer": lambda: total_ergodicity_test(Squarefree(), rational(2), 5_000, mid,
                                                       negative_control=True),
        "total_third": lambda: total_ergodicity_test(Squarefree(), rational(Fraction(1, 3)),
                                                     5_000, mid, negative_control=True),
        "floor_ergodic": lambda: ergodic_weyl_test(
            floor_sequence(power(Fraction(3, 2)), Squarefree(), 20_000, mid),
            Constant("sqrt", 2)),
        "ud_power": lambda: ud_test(power(Fraction(3, 2)), Squarefree(), 10_000, 3, mid),
        "dilation": lambda: pq_dilation_check(t_log_t(), 2, 3, 10_000, 3),
        "ud_power_blocks": lambda: ud_test(power(Fraction(3, 2)), Squarefree(), 50_000, 3,
                                           mid),
        "ud_loggamma_blocks": lambda: ud_test(log_gamma(), Squarefree(), 50_000, 3, mid),
        "dilation_blocks": lambda: pq_dilation_check(t_log_t(), 2, 3, 40_000, 3),
        "ud_poly_blocks": lambda: ud_test(polynomial([rational(0), rational(1),
                                                      Constant("sqrt", 2)]),
                                          OmegaMod(2, 0), 40_000, 3, mid),
        "floor_ergodic_tlogt": lambda: ergodic_weyl_test(
            floor_sequence(t_log_t(), Squarefree(), 50_000, mid), Constant("sqrt", 2)),
    }


# SHA-256 of render_json(report, {"case": name}); a change to the reduction
# or phase paths must leave these bytes alone, one that alters them on purpose
# updates them.  The *_blocks cases span several ddmath.BLOCK slices with a
# partial last one.
PINNED_DIGESTS = {
    "halasz_xi": "8c31a6250bd781c89cc18b3e8c3963cd7e358ccaa729bbc4d74e049343cf2886",
    "halasz_liouville": "6a6c8b2f09cca039e8fe3c4d40c7921741ff3e23fda900f240bea8e4ce19afaa",
    "three_log": "3b59b44158c8d8a6b8085807a7cb005d035e3b3c4d499b5a6cd113a5f2d56420",
    "three_omega": "4feb9d840199d133e82a1f7f9722144d4d76fed33d1f719365782380eccd304a",
    "concentration": "5ce49729aa8d3c4998545c7e1bc5c3828aeda30c86e71843f4235577e9b6b168",
    "concentration_tol": "845cb9a07edb0d4471a65d3dabeca6061885701d71cb9df39182d704a6f3f0fa",
    "density_abundant": "d25b80ec8e8a7a3cce04c9cf4fada20906c168e68d3c8603e69e90a6ba10e799",
    "density_omega": "3d5cfd289e867b98ce3f87fee91f3a287a7b2e379a9f09f9705728fde3f4eb57",
    "seminorm_phi": "3dc7275f666ae2b8e49126d7debf919cdc73b710c08ba87c164e22f129ddf4af",
    "mean_liouville": "22ee0d89cbc142ff2a59db4552ef6b5133065b23722d17817302b0a1f41bf258",
    "total_golden": "48e76c65d39b290aa488fe039e7d93e7ed1697d643cfe7c7aa764097c900cc52",
    "total_integer": "c3b39fef6ff154537c401601c939e1ecf5be0c7a12519ecfd42b4f3b1f0e9b42",
    "total_third": "d831cbf4c51f0e9054d204a2cadf91e7cf600b15a09a5a0546743694dadba600",
    "floor_ergodic": "22f0332e521ade5e1367edd2eb824594349daa9d241fdc3fad6843f303a6e54a",
    "ud_power": "b7b2da74bc72ac5abc1b2ded1e98c0c762e09f290e9677c8b6f950d899df7035",
    "dilation": "6cdb0d8a432e1ccfa4f2c54b4f499ae2fd22d3fd108f34f0adad1daa6c5e7b83",
    "ud_power_blocks": "628f11878f118e4b453c7d191bcdf7ff1580c20252123130c9fde6f59aa6a644",
    "ud_loggamma_blocks": "fe0a4f29793df5f23da9178635c1f326fd14a86d51e176e3cb14110729f4ba7b",
    "dilation_blocks": "c3b36a24bd1cad15d01b677dd43d50b47554c0494b6b89aa0bbbee3c4fc1f4ef",
    "ud_poly_blocks": "1e96fddf18bdc08728e94410bcc5dc5fad9138c8cd96ed6058170f620ee3b5e1",
    "floor_ergodic_tlogt": "d58d7a475991122191468dfd75ae09bec1145eec741ba7122210a00b2882ed9e",
}


def _pinned_digests(small, mid):
    return {name: hashlib.sha256(reports.render_json(make(), {"case": name})).hexdigest()
            for name, make in _pinned_reports(small, mid).items()}


def test_report_bytes_are_pinned(sieve_small, sieve_mid):
    made = _pinned_digests(sieve_small, sieve_mid)
    assert sorted(made) == sorted(PINNED_DIGESTS)
    for name, digest in made.items():
        assert digest == PINNED_DIGESTS[name], name


# numpy's AVX2 and AVX-512 loops (its x86-64 baseline is X86_V2)
NO_WIDE_SIMD = "X86_V4 AVX512_ICL AVX512_SPR X86_V3"
_RENDER_PINNED = """
import json, sys
from katailab.sieve import FactorSieve
import test_reports_cli as t
small, mid = (FactorSieve.build(int(a)) for a in sys.argv[1:])
print(json.dumps(t._pinned_digests(small, mid)))
"""


def test_report_bytes_do_not_depend_on_the_cpu(sieve_small, sieve_mid):
    """The pinned cases give the same bytes with numpy's wide SIMD loops off."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_WIDE_SIMD,
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    proc = subprocess.run(
        [sys.executable, "-c", _RENDER_PINNED, str(sieve_small.limit), str(sieve_mid.limit)],
        env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode and "CPU feature" in proc.stderr:
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES={NO_WIDE_SIMD!r}: "
                    f"{proc.stderr.strip().splitlines()[-1]}")
    assert proc.returncode == 0, proc.stderr
    narrow = json.loads(proc.stdout.splitlines()[-1])
    default = _pinned_digests(sieve_small, sieve_mid)
    assert [k for k in default if narrow[k] != default[k]] == []


def test_checkpoints_below_one_exit_2(capsys):
    cases = [
        ["density", "--set", "squarefree", "--x", "1000", "--checkpoints", "0,10"],
        ["density", "--set", "squarefree", "--x", "1000", "--checkpoints=-7"],
        ["meanvalue", "--function", "mobius", "--n", "1000", "--checkpoints", "10,0"],
        ["meanvalue", "--function", "mobius", "--n", "1000", "--checkpoints=-4,10"],
    ]
    for argv in cases:
        assert run(argv) == 2
        first = argv[-1].rpartition("=")[2].split(",")
        first = next(c for c in first if int(c) < 1)
        assert capsys.readouterr().err == f"error: checkpoints must be >= 1, got {first}\n"



@pytest.mark.parametrize("series", ["concentration", "halasz", "three"])
def test_dist_series_checkpoints_outside_1_to_y_exit_2(series, tmp_path, cache, capsys):
    out = tmp_path / "s.csv"
    base = ["dist", "--function", "big_omega", "--series", series, "--y", "1000",
            "--cache", cache, "--csv", str(out)]
    assert run([*base, "--checkpoints", "100,5000"]) == 2
    assert capsys.readouterr().err == "error: checkpoints must be <= y = 1000, got 5000\n"
    assert run([*base, "--checkpoints", "0,100"]) == 2
    assert capsys.readouterr().err == "error: checkpoints must be >= 1, got 0\n"
    assert not out.exists()
    assert run([*base, "--checkpoints", "100,1000"]) == 0


def test_main_parses_with_one_parser_per_process(tmp_path, cache, monkeypatch, capsys):
    assert cli._parser() is cli._parser()
    calls = [
        ["density", "--set", "squarefree", "--x", "50000", "--checkpoints", "100,1000"],
        ["meanvalue", "--function", "liouville", "--n", "20000"],
        ["dist", "--function", "mobius", "--series", "halasz", "--y", "3000", "--t", "0.5"],
        ["density", "--set", "squarefree"],  # no --x: a parse error
        ["weyl", "--hardy", "power:1.5", "--n", "300", "--kmax", "2"],
        ["density", "--set", "tau_mod:3,1", "--x", "40000"],
        ["katai", "--theta", "sqrt2", "--x", "5000", "--correlation", "2", "3"],
        ["dist", "--function", "big_omega", "--series", "three", "--y", "2000"],
    ]

    def series(tag):
        out = []
        for k, argv in enumerate(calls):
            csv = tmp_path / f"{tag}{k}.csv"
            code = main([*argv, "--cache", cache, "--csv", str(csv)])
            out.append((code, csv.read_bytes() if csv.exists() else None,
                        capsys.readouterr().out))
        return out

    shared = series("shared")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    assert series("fresh") == shared
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 0, 0, 0]

# The README's CLI commands at small sizes; each run writes --json and --csv.
# A change that deletes code must leave both files' bytes alone.
README_COMMANDS = {
    "density": ["density", "--set", "squarefree", "--x", "100000"],
    "katai_decay": ["katai", "--set", "squarefree", "--theta", "sqrt2", "--x", "100000"],
    "katai_correlation": ["katai", "--theta", "golden", "--x", "100000",
                          "--correlation", "2", "3"],
    "tk_x": ["tk", "--pmax", "100", "--x", "100000"],
    "tk_x_list": ["tk", "--pmax", "100", "--x-list", "1000,10000,100000"],
    "meanvalue_euler_product": ["meanvalue", "--function", "euler_phi_ratio",
                                "--n", "100000", "--euler-product"],
    "dist_cdf": ["dist", "--function", "euler_phi_ratio", "--series", "cdf",
                 "--n", "100000"],
    "dist_concentration": ["dist", "--function", "liouville", "--series",
                           "concentration", "--target", "-1", "--y", "100000"],
    "weyl_set": ["weyl", "--set", "big_omega_mod:2,0", "--hardy", "poly:0,1,sqrt2",
                 "--n", "20000", "--kmax", "5"],
    "weyl_dilate": ["weyl", "--hardy", "power:1.5", "--dilate", "2", "3", "--n", "20000"],
    "ergodic_total": ["ergodic", "--set", "big_omega_mod:2,0", "--alpha", "golden",
                      "--n", "20000"],
    "ergodic_floor": ["ergodic", "--set", "squarefree", "--alpha", "0.5", "--mode",
                      "floor", "--hardy", "power:1.5", "--n", "20000"],
}

# SHA-256 of the (--json, --csv) files of each README command
README_DIGESTS = {
    "density": ["d68ec184dc1f42ad6b4804c67f840f2c97bee6161973568ff63212dc5ec5f74e",
                "d0c8eb4d2a52b5bef3471a0b2e1147367457f202129ae7ac244f8aa302839590"],
    "dist_cdf": ["9690e1eaf312f066c9ad726a5e75406fa197f20c4f1e11ae626357adefd1bced",
                 "cf68c1b7b29436ab9c0c2af846423461134c64c06021f04e2b3438c7620bea9c"],
    "dist_concentration": ["2b48905a71173f7b48b4cc71529f66a4a8615335198868cd99287660a81592c1",
                           "918f98c29962ca55720003bd6f804f3925cfa6ab7194d0ef7c88ba83083d306c"],
    "ergodic_floor": ["04e74644367c61df9d6abdd684d18e49f1c412a22f38893706f2da43ed8f572e",
                      "3c87fe84d905edaa8e051483f55aa2eaed27fd8decd752022d4bd5f5f971bab5"],
    "ergodic_total": ["f811729baa7ccd2ae7efbf4a01186859a983f835eaac19ae59e768232a0d4546",
                      "ac670bcdd0a9bc037f8d13a487c4c6ba3f54358f77c99613f0a4e9649f078acb"],
    "katai_correlation": ["e3e6402b65dc7c788d2e6db844746b04da9dd9b2f31dfdd68e079bda01a07cdd",
                          "55ab83f37af6e2a72239942d191e3e19c96cf6734c17509c6fed35e3efa26eee"],
    "katai_decay": ["8318a58e9922646c9180c2c5359abc4c1e2b591ac8cddbaa9e2c24f971dd832c",
                    "bae3af6cab255d7b78e8096d36948c26ad6f7be41a817114adeac0821128c338"],
    "meanvalue_euler_product": ["971db357a8982cfcc4fb756d99459aa993ad57176823c4b51597e0b933011d0b",
                                "aa057a721cbfe130478c7f1bc4fc8d677c7df51cd5b54c5a5a89c848951cd891"],
    "tk_x": ["8fbc4769d83a6db8f9a7d1c6ade4711cb1d370cd19e0f50eb0329515dfdf36ba",
             "05157a0020a5d2cb93c9d3b666cbf26c40a25091133210fc1aa0aaa0813d5c12"],
    "tk_x_list": ["57e0204d947b4c6d0b4c235f5464fee51c22cf24a2df6951a72c5e69759d89fa",
                  "364acbe8274620759c9f53baa01b46c7fca07e6ec04f72d7f989fdc1c3b2a185"],
    "weyl_dilate": ["925dd1d5ab327d65f9327cff6cafc71d549ff441b10e3c8f7fcc346cccc80717",
                    "f2baa86b8f4f9abbeb2e501fd2aef1b4dfd4aa1e6e923439bd93b5ec5b9b899f"],
    "weyl_set": ["be7a81d4ca196adea05a132c446de17b77ef134d7ab0f402753f1ffc939f4b2d",
                 "6aeef76adc0c017b719c193752fdcad2cac1fd72cdd78d7c3b28b275029bd992"],
}


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_bytes_are_pinned(name, tmp_path, cache):
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    assert run(README_COMMANDS[name] + ["--cache", cache, "--json", str(out_json),
                                        "--csv", str(out_csv)]) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out_json, out_csv)]
    assert digests == README_DIGESTS[name]
