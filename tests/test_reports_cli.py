"""CLI subcommands, report files, provenance, and thread determinism."""

import json

import pytest

from katailab.cli import ExperimentConfig, main, parse_function, parse_hardy, parse_set
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
    assert out.read_bytes()[:8] == b"KATAISV1"
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


def test_exit_code_numeric_budget(cache):
    # x beyond the cache limit is a budget violation, not a parse error
    code = run(["density", "--set", "squarefree", "--x", "10000000",
                "--cache", cache])
    assert code == 2  # cache too small is caught as validation
    code = run(["katai", "--theta", "sqrt2", "--x", str(2**40),
                "--correlation", "2", "10000019", "--cache", cache])
    assert code == 3


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


def test_atomic_write_leaves_no_temp_files(tmp_path, cache):
    out = tmp_path / "x.csv"
    run(["density", "--set", "squarefree", "--x", "10000", "--cache", cache,
         "--csv", str(out)])
    FactorSieve.build(1000).save(tmp_path / "c.spf")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.spf", "x.csv"]


def test_experiment_config_roundtrip():
    cfg = ExperimentConfig(command="density",
                           params={"set": {"variant": "squarefree"}, "x": 100},
                           threads=4, outputs={"csv": "/tmp/x.csv"})
    clone = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert clone == cfg
    assert "threads" not in cfg.provenance()


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
