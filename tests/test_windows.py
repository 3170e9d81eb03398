"""The window protocol: reader(x)(lo, hi) of every function and level set is
bit-equal to the same slice of the whole table, the sums that reduce windows
give the same bytes on one and two threads, and they hold no whole table."""

import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from katailab import functions as fns
from katailab import levelsets
from katailab.constants import GOLDEN, SQRT2, Constant, rational
from katailab.levelsets import (
    Abundant,
    GenericLevel,
    Intersection,
    IntervalSetMod1,
    OmegaMod,
    OmegaRot,
    PhiRatioBelow,
    Squarefree,
    TauMod,
    TruncationError,
    empirical_density,
    enumerate_members,
    first_members,
)
from katailab.meanvalues import empirical_mean, seminorm_l1
from katailab.orthogonality import LinearExponential, orthogonality_sum
from katailab.reports import render_json
from katailab.sieve import FactorSieve
from katailab.summation import CHUNK, geometric_checkpoints

X = 3 * CHUNK + 4_321  # four summation chunks, the last one partial


@pytest.fixture(scope="module")
def sieve():
    return FactorSieve.build(X)


def _windows():
    rng = np.random.default_rng(18)
    fixed = [(0, X + 1), (0, 1), (0, 7), (1, CHUNK), (CHUNK - 3, 2 * CHUNK + 5),
             (12_345, 150_001), (X, X + 1), (X + 1, X + 1), (5, 5)]
    return fixed + [tuple(sorted(rng.integers(0, X + 2, size=2).tolist())) for _ in range(24)]


def _same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# -- whole tables as the code before windows built them ----------------------

def _whole_xi(counted, xi, squarefree=False):
    def table(x, s):
        counts = s.table(counted, x)
        lut = np.array([complex(fns.lambda_xi(xi).prime_power(2, k)) if k else 1
                        for k in range(int(counts.max()) + 1)])
        out = lut[counts]
        if squarefree:
            out = out * s.table("squarefree", x)
        out[0] = 0.0
        return out
    return table


def _whole_archimedean(t):
    def table(x, s):
        n = np.arange(x + 1, dtype=np.float64)
        n[0] = 1.0
        out = np.exp(1j * t * np.log(n))
        out[0] = 0.0
        return out
    return table


def _whole_phi_ratio(x, s):
    out = np.zeros(x + 1)
    out[1:] = s.table("phi", x)[1:] / np.arange(1, x + 1, dtype=np.float64)
    return out


def _custom_rule(p, m):
    return complex(1 / p, (-1) ** m / (m + 1))


WHOLE_FUNCTIONS = {
    **{name: (make, lambda x, s, t=name: s.table(t, x).astype(np.float64))
       for name, make in fns.CATALOG.items()
       if name in ("mobius", "sigma", "tau", "big_omega", "small_omega")},
    "squarefree_indicator": (fns.squarefree_indicator,
                             lambda x, s: s.table("squarefree", x).astype(np.float64)),
    "liouville": (fns.liouville,
                  lambda x, s: np.where((s.table("big_omega", x) & 1) == 0, 1.0, -1.0)),
    "euler_phi_ratio": (fns.euler_phi_ratio, _whole_phi_ratio),
    "one": (fns.constant_one, lambda x, s: np.concatenate([[0.0], np.ones(x)])),
    "archimedean": (lambda: fns.archimedean(1.5), _whole_archimedean(1.5)),
    "archimedean_neg": (lambda: fns.archimedean(-0.3), _whole_archimedean(-0.3)),
    **{f"dirichlet:{d}": (lambda d=d, e=e: fns.dirichlet_character(d, e),
                          lambda x, s, d=d, e=e: fns.dirichlet_character(d, e)
                          .character_table[np.arange(x + 1) % d])
       for d, e in ((1, []), (5, [1]), (8, [1, 1]), (15, [1, 3]))},
    **{f"{name}:{xi}": (lambda make=make, xi=xi: make(xi),
                        _whole_xi(counted, xi, name == "mu_xi"))
       for name, make, counted in (("lambda_xi", fns.lambda_xi, "big_omega"),
                                   ("kappa_xi", fns.kappa_xi, "small_omega"),
                                   ("mu_xi", fns.mu_xi, "big_omega"))
       for xi in (SQRT2, rational("0.25"))},
    "custom": (lambda: fns.custom(_custom_rule),
               lambda x, s: fns.bulk_values(fns.custom(_custom_rule), x, s)),
}


def test_whole_function_oracles_cover_the_catalog():
    names = {key.partition(":")[0] for key in WHOLE_FUNCTIONS}
    assert set(fns.CATALOG) | {"archimedean", "dirichlet", "lambda_xi", "kappa_xi",
                               "mu_xi", "custom"} <= names


@pytest.mark.parametrize("key", sorted(WHOLE_FUNCTIONS))
def test_function_windows_are_slices_of_the_whole_table(key, sieve):
    make, whole = WHOLE_FUNCTIONS[key]
    want = whole(X, sieve)
    fn = make()
    assert _same_bits(fn.values_upto(X, sieve), want), key
    read = fn.reader(X, sieve)
    for lo, hi in _windows():
        assert _same_bits(read(lo, hi), want[lo:hi]), (key, lo, hi)


def _count_mod(table, b, r):
    return lambda x, s: s.table(table, x).astype(np.int64) % b == r % b


def _rot(counted, alpha, window):
    def members(x, s):
        k = s.table(counted, x)
        return window.contains(alpha.frac_mul(np.arange(int(k.max()) + 1)))[k]
    return members


def _kfree_mask(k, x, s):
    out = np.ones(x + 1, dtype=bool)
    for p in s.primes(int(x ** (1.0 / k)) + 1).tolist():
        out[p ** k::p ** k] = False
    return out


def _phi_below(q):
    return lambda x, s: (s.table("phi", x).astype(np.int64) * q.denominator
                         < q.numerator * np.arange(x + 1))


HALF = IntervalSetMod1([(0, Fraction(1, 2))])
MIDDLE = IntervalSetMod1([(Fraction(1, 4), Fraction(3, 4))])
LOG2 = Constant("log", 2)

# one spelling per row of levelsets.SPELLINGS, some twice
WHOLE_SETS = {
    "squarefree": (Squarefree(), lambda x, s: s.table("squarefree", x).copy()),
    "kfree:2": (levelsets.KFree(2), lambda x, s: _kfree_mask(2, x, s)),
    "kfree:3": (levelsets.KFree(3), lambda x, s: _kfree_mask(3, x, s)),
    "kfree:5": (levelsets.KFree(5), lambda x, s: _kfree_mask(5, x, s)),
    "omega_mod:3,1": (OmegaMod(3, 1, "small_omega"), _count_mod("small_omega", 3, 1)),
    "big_omega_mod:2,0": (OmegaMod(2, 0), _count_mod("big_omega", 2, 0)),
    "big_omega_mod:200,3": (OmegaMod(200, 3), _count_mod("big_omega", 200, 3)),
    "tau_mod:4,1": (TauMod(4, 1), _count_mod("tau", 4, 1)),
    "abundant": (Abundant(), lambda x, s: s.table("sigma", x) > 2 * np.arange(x + 1)),
    "deficient": (levelsets.Deficient(),
                  lambda x, s: s.table("sigma", x) < 2 * np.arange(x + 1)),
    "phi_below:1/2": (PhiRatioBelow(rational("0.5")), _phi_below(Fraction(1, 2))),
    "phi_below:log2": (PhiRatioBelow(LOG2), lambda x, s: (
        s.table("phi", x) < float(LOG2) * np.arange(x + 1))),
    "omega_rot:sqrt2,0,1/2": (OmegaRot(SQRT2, HALF, "small_omega"),
                              _rot("small_omega", SQRT2, HALF)),
    "big_omega_rot:golden,1/4,3/4": (OmegaRot(GOLDEN, MIDDLE), _rot("big_omega", GOLDEN, MIDDLE)),
    "all": (GenericLevel(fns.constant_one(), 1), lambda x, s: np.ones(x + 1, dtype=bool)),
    "generic_level:lambda_xi": (
        GenericLevel(fns.lambda_xi(SQRT2), 1, 0.5),
        lambda x, s: np.abs(_whole_xi("big_omega", SQRT2)(x, s) - 1) <= 0.5),
    "intersection": (Intersection(Squarefree(), OmegaMod(2, 1)),
                     lambda x, s: s.table("squarefree", x) & (s.table("big_omega", x) % 2 == 1)),
}


def test_whole_set_oracles_cover_every_spelling():
    tags = {spec.to_json()["variant"] for spec, _ in WHOLE_SETS.values()}
    assert tags == set(levelsets.SPELLINGS.rows)


@pytest.mark.parametrize("key", sorted(WHOLE_SETS))
def test_set_windows_are_slices_of_the_whole_table(key, sieve):
    spec, whole = WHOLE_SETS[key]
    want = whole(X, sieve)
    want[0] = False
    assert _same_bits(spec.members_upto(X, sieve), want), key
    read = spec.reader(X, sieve)
    for lo, hi in _windows():
        assert _same_bits(read(lo, hi), want[lo:hi]), (key, lo, hi)
    members = np.flatnonzero(want)
    assert list(enumerate_members(spec, X, sieve)) == members.tolist()
    for count in (0, 1, min(700, members.size), members.size):
        assert np.array_equal(first_members(spec, count, sieve), members[:count])
    with pytest.raises(TruncationError) as err:
        first_members(spec, members.size + 1, sieve)
    assert err.value.attained == members.size


def test_window_reads_leave_the_sieve_tables_unchanged(sieve):
    before = sieve.table("squarefree", X).copy()
    read = Squarefree().reader(X, sieve)
    read(0, 10)[:] = True  # a window is the caller's own array
    assert _same_bits(sieve.table("squarefree", X), before)


# -- the reductions ------------------------------------------------------------

def test_reductions_give_the_same_bytes_on_one_and_two_threads(sieve):
    theta = LinearExponential(SQRT2)
    cps = geometric_checkpoints(X)
    for make, *_ in WHOLE_FUNCTIONS.values():
        for mean in (empirical_mean, seminorm_l1):
            one, two = (render_json(mean(make(), X, cps, sieve, threads=t), {})
                        for t in (1, 2))
            assert one == two
    for spec, _ in WHOLE_SETS.values():
        one, two = (render_json(orthogonality_sum(spec, theta, X, cps, sieve, threads=t), {})
                    for t in (1, 2))
        assert one == two


def test_readers_shared_by_more_workers_than_cores(sieve):
    # every worker reads the same reader's windows; a lost or shared buffer
    # would change a chunk sum
    cps = [X]
    want = [render_json(empirical_mean(fns.archimedean(1.5), X, cps, sieve), {}),
            render_json(orthogonality_sum(Abundant(), LinearExponential(SQRT2), X, cps,
                                          sieve), {})]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [render_json(empirical_mean(fns.archimedean(1.5), X, cps, sieve, threads=8), {}),
               render_json(orthogonality_sum(Abundant(), LinearExponential(SQRT2), X, cps,
                                             sieve, threads=8), {})]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_means_and_densities_reduce_the_whole_tables(sieve):
    cps = [1, 2, 100, CHUNK - 1, CHUNK, 2 * CHUNK + 1, X]
    for make, whole in WHOLE_FUNCTIONS.values():
        values = whole(X, sieve)
        got = empirical_mean(make(), X, cps, sieve).means
        assert np.allclose(got, [values[1:c + 1].sum() / c for c in cps], rtol=1e-12)
    for spec, whole in WHOLE_SETS.values():
        members = whole(X, sieve)
        members[0] = False
        got = empirical_density(spec, cps, sieve).densities
        assert got == [int(np.count_nonzero(members[:c + 1])) / c for c in cps]


MEM_X = 2**22
MEM_BOUND = 4 << 20


@pytest.mark.parametrize("call", [
    lambda s: empirical_mean(fns.euler_phi_ratio(), MEM_X, None, s),
    lambda s: empirical_density(Abundant(), geometric_checkpoints(MEM_X), s),
], ids=["phi_ratio_mean", "abundant_density"])
def test_windowed_sums_hold_no_whole_table(call, sieve_big):
    for name in ("phi", "sigma"):
        sieve_big.table(name, MEM_X)  # built: the tables are not the sum's
    tracemalloc.start()
    try:
        call(sieve_big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole float64 table alone would be 32 MiB
    assert peak < MEM_BOUND, peak
