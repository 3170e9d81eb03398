"""Sieve construction, factorization, bulk tables, and the cache format."""

import os
import struct
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from katailab import functions as fns
from katailab import summation
from katailab.constants import Constant
from katailab.cli import main
from katailab.levelsets import (
    Squarefree,
    TauMod,
    concentration_scan,
    empirical_density,
    enumerate_members,
)
from katailab.meanvalues import empirical_mean, halasz_series, seminorm_l1, three_series
from katailab.orthogonality import (
    LinearExponential,
    orthogonality_sum,
    turan_kubilius_variance,
)
from katailab.sieve import (
    _RULES,
    _SEGMENT,
    CACHE_MAGIC,
    FactorSieve,
    SieveRangeError,
    _simple_spf,
    _spot_check_sample,
    _spot_check_truth,
    build_sieve,
    factorize,
)


def _trial_spf(n: int) -> int:
    """Smallest prime factor of n >= 2 by trial division, one n at a time."""
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def test_small_spf_values_by_inspection():
    s = build_sieve(10)
    assert s.spf[4] == 2
    assert s.spf[9] == 3
    assert s.spf[7] == 7
    assert s.spf[0] == 0 and s.spf[1] == 0


def test_boundary_limit_two():
    s = build_sieve(2)
    assert s.spf[2] == 2


def test_limit_bounds_rejected():
    with pytest.raises(SieveRangeError):
        build_sieve(1)
    with pytest.raises(SieveRangeError):
        build_sieve(2**31 + 1)


def test_spf_invariants_random_spot_check(sieve_big):
    # oracle: re-factorize by trial division
    rng = np.random.default_rng(1234)
    for n in rng.integers(2, sieve_big.limit + 1, size=10_000):
        n = int(n)
        p = int(sieve_big.spf[n])
        assert p == _trial_spf(n)
        assert n % p == 0


def test_spf_chase_terminates_quickly(sieve_small):
    for n in range(2, 10_001):
        steps = 0
        m = n
        while m > 1:
            m //= int(sieve_small.spf[m])
            steps += 1
        assert steps <= np.log2(n) + 1e-9


def test_spf_invariants_at_1e8():
    # oracle: re-factorize 10^4 random indices by trial division
    s = build_sieve(10**8, threads=2)
    rng = np.random.default_rng(888)
    for n in rng.integers(2, 10**8 + 1, size=10_000):
        assert int(s.spf[n]) == _trial_spf(int(n))


def test_parallel_build_is_byte_identical():
    a = FactorSieve.build(300_000, threads=1)
    b = FactorSieve.build(300_000, threads=4)
    assert a.spf.raw.tobytes() == b.spf.raw.tobytes()


def test_factorize_examples(sieve_small):
    assert list(factorize(12, sieve_small)) == [(2, 2), (3, 1)]
    assert list(factorize(1, sieve_small)) == []


def test_factorize_primorial():
    s = build_sieve(9_699_690)
    assert list(factorize(9_699_690, s)) == [
        (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
    ]


def test_factorize_reconstructs_n(sieve_small):
    rng = np.random.default_rng(99)
    for n in rng.integers(1, 10_001, size=500):
        f = sieve_small.factorize(int(n))
        assert f.n == int(n)
        primes = [p for p, _ in f]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)


def test_factorize_out_of_range(sieve_small):
    with pytest.raises(SieveRangeError):
        sieve_small.factorize(10_001)


RANGE_CHECKED = {
    "table": lambda x, s: s.table("mobius", x),
    "bulk_values": lambda x, s: fns.bulk_values(fns.mobius(), x, s),
    "members_upto": lambda x, s: Squarefree().members_upto(x, s),
    "enumerate_members": lambda x, s: next(enumerate_members(Squarefree(), x, s)),
    "empirical_density": lambda x, s: empirical_density(Squarefree(), [10, x], s),
    "empirical_mean": lambda x, s: empirical_mean(fns.mobius(), x, [10], s),
    "seminorm_l1": lambda x, s: seminorm_l1(fns.mobius(), x, [10], s),
    "halasz_series": lambda x, s: halasz_series(fns.liouville(), 0.0, x, [10], s),
    "three_series": lambda x, s: three_series(lambda p: 1.0, x, [10], s),
    "concentration_scan": lambda x, s: concentration_scan(fns.liouville(), -1, x, [10], s),
    "orthogonality_sum": lambda x, s: orthogonality_sum(
        Squarefree(), LinearExponential(Constant("sqrt", 2)), x, [10], s),
    "turan_kubilius_variance": lambda x, s: turan_kubilius_variance([2, 3], x, s),
    **{f"values_upto:{name}": lambda x, s, make=make: make().values_upto(x, s)
       for name, make in fns.CATALOG.items()},
    **{f"values_upto:{name}": lambda x, s, make=make: make(0.3).values_upto(x, s)
       for name, make in (("lambda_xi", fns.lambda_xi), ("kappa_xi", fns.kappa_xi),
                          ("mu_xi", fns.mu_xi))},
}


@pytest.mark.parametrize("name", sorted(RANGE_CHECKED))
def test_entry_points_reject_x_past_the_sieve(name, sieve_small):
    call = RANGE_CHECKED[name]
    call(sieve_small.limit, sieve_small)  # the limit itself is in range
    with pytest.raises(SieveRangeError, match="exceeds sieve limit"):
        call(sieve_small.limit + 1, sieve_small)


def test_primes_list(sieve_small):
    ps = sieve_small.primes(30)
    assert list(ps) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for upto in (-5, 0, 1):
        ps = sieve_small.primes(upto)
        assert ps.dtype == np.int64 and ps.size == 0


def brute_big_omega(n):
    count, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count + (n > 1)


def brute_sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_bulk_tables_against_brute_force(sieve_small):
    # name -> (dtype, value at the index-0 padding)
    layout = {
        "big_omega": (np.int8, 0), "small_omega": (np.int8, 0), "mobius": (np.int8, 0),
        "tau": (np.int16, 0), "sigma": (np.int64, 0), "phi": (np.int32, 0),
        "squarefree": (np.bool_, False),
    }
    for name, (dtype, pad) in layout.items():
        table = sieve_small.table(name)
        assert table.dtype == dtype and table.shape == (10_001,), name
        assert table[0] == pad, name
    big_omega = sieve_small.table("big_omega")
    small_omega = sieve_small.table("small_omega")
    mobius = sieve_small.table("mobius")
    sigma = sieve_small.table("sigma")
    tau = sieve_small.table("tau")
    phi = sieve_small.table("phi")
    squarefree = sieve_small.table("squarefree")
    rng = np.random.default_rng(7)
    sample = set(rng.integers(1, 10_001, size=300).tolist()) | set(range(1, 200))
    for n in sample:
        f = sieve_small.factorize(n)
        assert big_omega[n] == sum(e for _, e in f) == brute_big_omega(n)
        assert small_omega[n] == len(f)
        sf = all(e == 1 for _, e in f)
        assert bool(squarefree[n]) == sf
        assert mobius[n] == ((-1) ** len(f) if sf else 0)
        assert phi[n] == sum(1 for k in range(1, n + 1) if np.gcd(k, n) == 1)
        if n <= 2000:
            assert sigma[n] == brute_sigma(n)
            assert tau[n] == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_cache_roundtrip_and_spot_check(tmp_path):
    s = build_sieve(50_000)
    path = tmp_path / "cache.spf"
    s.save(path)
    raw = path.read_bytes()
    assert raw[:8] == CACHE_MAGIC
    assert int.from_bytes(raw[8:16], "little") == 50_000
    loaded = FactorSieve.load(path)
    assert loaded.limit == 50_000
    assert np.array_equal(loaded.spf.raw, s.spf.raw)


def test_cache_rejects_corruption(tmp_path):
    s = build_sieve(10_000)
    path = tmp_path / "cache.spf"
    s.save(path)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    bad = tmp_path / "bad_magic.spf"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        FactorSieve.load(bad)
    # corrupt an entry the loader is guaranteed to sample (same fixed seed)
    target = int(np.random.default_rng(0x5EED).integers(2, 10_001, size=1024)[0])
    raw = bytearray(path.read_bytes())
    raw[_entry_offset(10_000, target)] ^= 0xFF
    bad2 = tmp_path / "bad_entry.spf"
    bad2.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="spot check"):
        FactorSieve.load(bad2)


@pytest.mark.parametrize("limit", [2, 3, 10**5, 10**7, 2**31])
def test_spot_check_truth_is_trial_division(limit):
    # the samples alone: no sieve of the limit is built
    sample = _spot_check_sample(limit)
    assert sample.size == 1024 and sample.min() >= 2 and sample.max() <= limit
    assert _spot_check_truth(sample, limit).tolist() == [_trial_spf(int(n)) for n in sample]
    # squares and products of the primes just below sqrt(limit): their smallest
    # prime factor is among the last primes of the trial set
    root = int(np.sqrt(limit))
    base = _simple_spf(max(root, 2))
    top = [p for p in range(max(2, root - 300), root + 1) if base[p] == 0][-4:]
    pairs = [(p, q) for p in top for q in top if p <= q]
    near = np.array([p * q for p, q in pairs], dtype=np.int64)
    assert _spot_check_truth(near, limit).tolist() == [p for p, _ in pairs]
    assert limit < 10**5 or len(pairs) == 10


def _entry_offset(limit, n):
    """Byte offset of entry n in a v2 cache file of the given limit."""
    return 16 + 4 * -(-(limit + 1) // 2**16) + 2 * n


def _corrupt(path, tmp_path, entries):
    raw = bytearray(path.read_bytes())
    limit = int.from_bytes(raw[8:16], "little")
    for n in entries:
        raw[_entry_offset(limit, n)] ^= 0xFF
    bad = tmp_path / "corrupt.spf"
    bad.write_bytes(bytes(raw))
    return bad


def test_cache_spot_check_catches_the_last_sample(tmp_path):
    path = tmp_path / "cache.spf"
    build_sieve(10_000).save(path)
    last = int(_spot_check_sample(10_000)[-1])
    with pytest.raises(ValueError, match=f"spot check at n={last}$"):
        FactorSieve.load(_corrupt(path, tmp_path, [last]))


def test_cache_spot_check_names_the_first_failing_sample_in_seeded_order(tmp_path):
    path = tmp_path / "cache.spf"
    build_sieve(10_000).save(path)
    sample = _spot_check_sample(10_000).tolist()
    # two samples with the later one smaller, so seeded order is not numeric order
    first = sample[5]
    later = next(n for n in sample[6:] if n < first and n not in sample[:6])
    with pytest.raises(ValueError, match=f"spot check at n={first}$"):
        FactorSieve.load(_corrupt(path, tmp_path, [later, first]))


def test_primes_match_the_spf_fixed_points_across_blocks():
    s = build_sieve(200_000)
    n = np.arange(s.limit + 1)
    every = n[2:][s.spf[2:] == n[2:]]
    for upto in (2, 3, 4, 65_537, 65_538, 65_539, 131_073, 131_074, 199_999, 200_000):
        got = s.primes(upto)
        assert got.dtype == np.int64 and np.array_equal(got, every[every <= upto]), upto


def test_primes_peak_is_the_output_plus_one_block():
    s = build_sieve(2_000_000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = s.primes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.size == 148_933
    # one block: the uint32 arange, the bool mask and at most 2^16 int64 indices
    assert peak <= out.nbytes + (1 << 16) * (4 + 1 + 8) + 4096, peak


def test_unknown_table_name_lists_the_tables():
    s = build_sieve(100)
    with pytest.raises(ValueError, match="unknown sieve table 'prime_power_part'.*big_omega"
                                         ".*squarefree") as err:
        s.table("prime_power_part")
    assert not isinstance(err.value, SieveRangeError)
    assert s._tables == {}


TABLES = [*_RULES, "squarefree"]


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(
        got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("order,limit,threads", [
    # the last x spans three 2^16-entry kernel blocks
    *(pytest.param(order, 150_000, 1, id=order) for order in ("up", "down", "interleaved")),
    # past 2^20: the bands from 2^19 run on two threads, against one
    pytest.param("interleaved", 2**20 + 12_345, 2, id="interleaved-2-threads"),
])
def test_tables_sized_to_the_request_match_the_whole_table(order, limit, threads):
    xs = [0, 1, 2, 3, 100, 4_097, 65_536, 65_537, 140_000, limit]
    if order == "down":
        xs = xs[::-1]
    elif order == "interleaved":
        xs = [65_537, 3, limit, 100, 140_000, 0, 4_097, 1, 65_536, 2]
    whole = build_sieve(limit)
    whole_tables = {name: whole.table(name).copy() for name in TABLES}
    whole_mu = fns.bulk_values(fns.mobius(), limit, whole)
    s = build_sieve(limit, threads)
    for name in TABLES:
        for x in xs:
            assert _same_bits(s.table(name, x), whole_tables[name][: x + 1]), (name, x)
            if order == "interleaved":
                # bulk_values shares the memoized rest/e split at its own x
                y = x // 3
                assert _same_bits(fns.bulk_values(fns.mobius(), y, s), whole_mu[: y + 1])
    assert _same_bits(s.table("mobius"), whole_tables["mobius"])


def test_table_bands_run_on_the_build_threads(tmp_path, monkeypatch):
    pools = []

    class Recording(summation.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    built = {(limit, threads): build_sieve(limit, threads)
             for limit, threads in ((2**20, 2), (2**20, 1), (500_000, 2))}
    built[2**20, 2].save(tmp_path / "c.spf")
    loaded = FactorSieve.load(tmp_path / "c.spf")
    assert loaded.threads == 1
    monkeypatch.setattr(summation, "ThreadPoolExecutor", Recording)
    # 2^20 with two threads: the band [2^19, 2^20) of 8 blocks runs on a
    # pool, once for the split and once for the phi kernel
    for s, want in ((built[2**20, 2], [2, 2]), (built[2**20, 1], []),
                    (built[500_000, 2], []), (loaded, [])):
        pools.clear()
        s.table("phi")
        assert pools == want, (s.limit, s.threads)
    assert built[2**20, 2].table("phi").tobytes() == loaded.table("phi").tobytes()


def test_tables_hold_only_the_requested_prefix():
    s = build_sieve(200_000)
    x = 30_000
    empirical_density(TauMod(3, 1), [x], s)
    empirical_mean(fns.euler_phi_ratio(), x, [x], s)
    assert sorted(s._tables) == ["phi", "tau"]
    assert s._tables["tau"].size == s._tables["phi"].size == x + 1
    assert [a.size for a in s._rest_e] == [x + 1, x + 1]
    s.table("tau", 2 * x)  # a larger request rebuilds the memo at its own size
    assert s._tables["tau"].size == 2 * x + 1 and s._rest_e[0].size == 2 * x + 1
    assert s.table("tau", 10).size == 11 and s._tables["tau"].size == 2 * x + 1


def test_cache_load_maps_the_body(tmp_path):
    s = build_sieve(20_000)
    path = tmp_path / "cache.spf"
    s.save(path)
    loaded = FactorSieve.load(path)
    assert isinstance(loaded.spf.raw.base, np.memmap) and not loaded.spf.raw.flags.writeable
    for name in TABLES:
        assert _same_bits(loaded.table(name, 12_345), s.table(name, 12_345)), name


def test_cache_load_rejects_truncated_files(tmp_path):
    good = tmp_path / "good.spf"
    build_sieve(1_000).save(good)
    raw = good.read_bytes()
    full = _entry_offset(1_000, 1_001)
    cuts = {"inside_body": _entry_offset(1_000, 500) + 1, "header_only": 16,
            "short_header": 12, "inside_checksums": 18, "trailing_1": full - 1}
    for label, size in cuts.items():
        path = tmp_path / f"{label}.spf"
        path.write_bytes(raw[:size])
        with pytest.raises(ValueError, match="truncated"):
            FactorSieve.load(path)
        argv = ["density", "--set", "squarefree", "--x", "100", "--cache", str(path)]
        assert main(argv) == 2, label
        assert path.stat().st_size == size, label  # not rebuilt over


def test_resave_over_a_mapped_cache_keeps_the_loaded_sieve(tmp_path):
    path = tmp_path / "cache.spf"
    old = build_sieve(30_000)
    old.save(path)
    loaded = FactorSieve.load(path)
    new = build_sieve(40_000)
    new.save(path)  # a rename: the mapped inode stays readable
    assert np.array_equal(loaded.spf.raw, old.spf.raw)
    assert _same_bits(loaded.table("sigma"), old.table("sigma"))
    assert FactorSieve.load(path).limit == 40_000
    assert np.array_equal(FactorSieve.load(path).spf.raw, new.spf.raw)
    loaded.save(path)  # saving from the map onto its own path
    assert np.array_equal(FactorSieve.load(path).spf.raw, old.spf.raw)


# -- the uint16 table against a uint32 oracle, and cache v2 -------------------


def _oracle_spf(limit):
    """uint32 spf over 0..limit with spf[p] = p and 0 at n < 2: an ascending
    sieve that marks each composite once, with no encoding."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    idx = np.flatnonzero(spf[2:] == 0) + 2
    spf[idx] = idx
    return spf


def _oracle_tables(spf):
    """Every sieve table from the uint32 oracle: n = p^e * rest with
    p = spf[n], then v(n) = v(rest) (+ or *) rule(p, e), in blocks hi <= 2 lo."""
    upto = spf.size - 1
    rest = np.ones(upto + 1, dtype=np.uint32)
    e = np.zeros(upto + 1, dtype=np.int8)
    edges = [2]
    while edges[-1] <= upto:
        edges.append(min(2 * edges[-1], upto + 1))
    blocks = list(zip(edges, edges[1:]))
    for lo, hi in blocks:
        p = spf[lo:hi]
        div = np.arange(lo, hi, dtype=np.uint32) // p
        same = spf[div] == p
        rest[lo:hi] = np.where(same, rest[div], div)
        e[lo:hi] = e[div] * same + 1
    tables = {}
    for name, (rule, dtype, additive) in _RULES.items():
        out = np.zeros(upto + 1, dtype=dtype)
        out[1] = 0 if additive else 1
        for lo, hi in blocks:
            head, g = out[rest[lo:hi]], rule(spf[lo:hi], e[lo:hi])
            out[lo:hi] = np.add(head, g) if additive else np.multiply(head, g)
        tables[name] = out
    tables["squarefree"] = np.concatenate([[False], tables["mobius"][1:] != 0])
    return tables


def _oracle_factorize(n, spf):
    pairs = []
    while n > 1:
        p, e = int(spf[n]), 0
        while n % p == 0:
            n, e = n // p, e + 1
        pairs.append((p, e))
    return pairs


@pytest.mark.parametrize("limit", [70_001, 140_000])  # past 2^16, past 2^17
def test_uint16_table_matches_the_uint32_oracle(limit, tmp_path):
    oracle = _oracle_spf(limit)
    built = build_sieve(limit, threads=2)
    assert built.spf.raw.dtype == np.uint16
    assert np.array_equal(built.spf.raw, np.where(oracle == np.arange(limit + 1), 0, oracle))
    path = tmp_path / "c.spf"
    built.save(path)
    want = _oracle_tables(oracle)
    for s in (built, FactorSieve.load(path)):
        assert np.array_equal(s.spf[:], oracle) and s.spf[:].dtype == np.uint32
        idx = np.random.default_rng(limit).integers(0, limit + 1, size=5_000)
        assert np.array_equal(s.spf[idx], oracle[idx])
        assert [s.spf[int(n)] for n in idx[:500]] == oracle[idx[:500]].tolist()
        squares = [p * p for p in s.primes(isqrt(limit)).tolist()]
        for n in [*squares, *idx[:2_000].tolist()]:
            if n >= 1:
                assert list(s.factorize(n)) == _oracle_factorize(n, oracle), n
        for name, table in want.items():
            assert _same_bits(s.table(name), table), name


def test_builds_on_one_and_two_threads_give_the_same_table_and_file(tmp_path):
    limit = 2 * _SEGMENT + 12_345  # three build segments
    one, two = build_sieve(limit, threads=1), build_sieve(limit, threads=2)
    assert one.spf.raw.tobytes() == two.spf.raw.tobytes()
    one.save(tmp_path / "one.spf")
    two.save(tmp_path / "two.spf")
    assert (tmp_path / "one.spf").read_bytes() == (tmp_path / "two.spf").read_bytes()


def test_build_peak_is_two_bytes_per_entry():
    # marking writes the uint16 table in place: what is left over is the
    # small base sieve and the thread bookkeeping, not a segment's masks
    limit = 2**22
    for threads in (1, 2):
        tracemalloc.start()
        try:
            build_sieve(limit, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (limit + 1) + (1 << 16), (threads, peak)


def test_v1_cache_is_refused_naming_the_rebuild(tmp_path, capsys):
    # a v1 file: magic KATAISV1, the limit, then LE uint32 entries
    path = tmp_path / "v1.spf"
    path.write_bytes(b"KATAISV1" + struct.pack("<Q", 1_000)
                     + _oracle_spf(1_000).astype("<u4").tobytes())
    with pytest.raises(ValueError, match="bad sieve cache magic b'KATAISV1'.*katailab sieve"):
        FactorSieve.load(path)
    capsys.readouterr()
    assert main(["density", "--set", "squarefree", "--x", "100", "--cache", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad sieve cache magic") and err.count("\n") == 1, err
    assert "katailab sieve" in err and "Traceback" not in err


def test_v1_cache_faults_fail_cleanly(tmp_path, capsys):
    # a truncated v1 file and one with an entry no uint16 holds: both fail on
    # their magic, before any entry is read, with the same one-line error
    raw = bytearray(b"KATAISV1" + struct.pack("<Q", 1_000)
                    + _oracle_spf(1_000).astype("<u4").tobytes())
    truncated = bytes(raw[: 16 + 4 * 600])
    raw[16 + 4 * 999 + 2] = 1  # spf(999) = 3 + 2^16
    path = tmp_path / "v1.spf"
    for data in (truncated, bytes(raw)):
        path.write_bytes(data)
        with pytest.raises(ValueError, match="bad sieve cache magic b'KATAISV1'"):
            FactorSieve.load(path)
        capsys.readouterr()
        assert main(["density", "--set", "squarefree", "--x", "100", "--cache", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad sieve cache magic") and err.count("\n") == 1, err
        assert "Traceback" not in err


def _unsampled(limit, lo, hi):
    """An n in [lo, hi) that load()'s spot check does not read."""
    sample = set(_spot_check_sample(limit).tolist())
    return next(n for n in range(lo, hi) if n not in sample)


def test_cache_checks_only_the_segments_a_request_reads(tmp_path):
    path = tmp_path / "c.spf"
    build_sieve(300_000).save(path)  # five 2^16-entry segments
    loaded = FactorSieve.load(path)
    assert not loaded.spf._checked.any()  # the spot check reads raw entries
    loaded.table("mobius", 100_000)
    assert loaded.spf._checked.tolist() == [True, True, False, False, False]
    loaded.primes(200_000)
    assert loaded.spf._checked.tolist() == [True, True, True, True, False]
    loaded.factorize(299_999)
    assert loaded.spf._checked.all()


def test_a_flipped_byte_fails_the_request_that_reads_its_segment(tmp_path):
    path = tmp_path / "c.spf"
    build_sieve(300_000).save(path)
    n = _unsampled(300_000, 3 * 2**16 + 100, 4 * 2**16)  # in segment 3
    bad = _corrupt(path, tmp_path, [n])
    loaded = FactorSieve.load(bad)  # neither the header nor the spot check sees it
    loaded.table("tau", 150_000)
    with pytest.raises(ValueError, match=r"segment 3 \(n = 196608\.\.262143\) fails its checksum"):
        loaded.table("tau")
    with pytest.raises(ValueError, match="segment 3"):
        FactorSieve.load(bad).factorize(n)
    # the squarefree mask reads only the primes <= sqrt(x); Omega reads every n <= x
    density = ["density", "--set", "big_omega_mod:2,0", "--cache", str(bad), "--x"]
    assert main([*density, "150000"]) == 0
    assert main([*density, "250000"]) == 2
    meanvalue = ["meanvalue", "--function", "mobius", "--n", "250000", "--cache", str(bad)]
    assert main(meanvalue) == 2


def test_factorize_stops_at_an_entry_that_is_no_prime_factor():
    # a table without checksums: 1 and 3 as entries of 8 would loop forever
    s = build_sieve(1_000)
    for wrong in (1, 3):
        raw = s.spf.raw.copy()
        raw[8] = wrong
        with pytest.raises(ValueError, match=f"entry {wrong} at n=8 is no prime factor"):
            FactorSieve(1_000, raw).factorize(8)
    assert list(FactorSieve(1_000, s.spf.raw.copy()).factorize(8)) == [(2, 3)]


def test_an_interrupted_save_leaves_no_file(tmp_path, monkeypatch):
    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    path = tmp_path / "c.spf"
    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        build_sieve(1_000).save(path)
    assert main(["sieve", "--limit", "1000", "--out", str(path)]) == 2
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    build_sieve(1_000).save(path)
    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError):
        build_sieve(2_000).save(path)  # the old cache stays whole
    assert list(tmp_path.iterdir()) == [path] and FactorSieve.load(path).limit == 1_000
