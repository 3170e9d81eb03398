"""Arithmetic-function catalog: spec examples, multiplicativity, characters."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from katailab import functions as fns
from katailab.constants import Constant, rational
from katailab.functions import (
    CharacterGroupError,
    EvaluationError,
    all_characters,
    dirichlet_character,
    root_of_unity,
    smallest_primitive_root,
)
from katailab.levelsets import concentration_scan
from katailab.sieve import FactorSieve
from katailab.summation import prime_series


def test_catalog_point_values(sieve_small):
    assert fns.mobius().eval(30, sieve_small) == -1
    assert fns.sigma().eval(12, sieve_small) == 28
    assert fns.tau().eval(12, sieve_small) == 6
    assert fns.big_omega().eval(12, sieve_small) == 3
    assert fns.small_omega().eval(12, sieve_small) == 2


def test_lambda_xi_half_is_liouville(sieve_small):
    lam = fns.liouville()
    lx = fns.lambda_xi(rational(Fraction(1, 2)))
    for n in range(1, 10_001):
        assert lx.eval(n, sieve_small) == lam.eval(n, sieve_small)


def test_custom_phi_rule(sieve_small):
    g = fns.custom(lambda p, m: Fraction(p - 1, p))
    assert g.eval(12, sieve_small) == Fraction(1, 3)
    phi = sieve_small.table("phi")
    assert g.eval(12, sieve_small) == Fraction(int(phi[12]), 12)


def test_custom_rule_nonfinite_raises(sieve_small):
    g = fns.custom(lambda p, m: float("nan") if p == 3 else 1.0)
    with pytest.raises(EvaluationError) as err:
        g.eval(9, sieve_small)
    assert err.value.p == 3 and err.value.m == 2


def _coprime_pairs_upto(bound):
    for m in range(1, bound + 1):
        for n in range(m, bound // m + 1):
            if math.gcd(m, n) == 1:
                yield m, n


def test_multiplicativity_exhaustive_and_random(sieve_big):
    cases = [
        fns.mobius(), fns.liouville(), fns.euler_phi_ratio(), fns.sigma(),
        fns.tau(), fns.squarefree_indicator(),
        fns.lambda_xi(Constant("sqrt", 2)), fns.kappa_xi(Constant("golden")),
        fns.mu_xi(rational(Fraction(1, 3))), fns.archimedean(1.7),
        dirichlet_character(12, (1, 1)),
    ]
    additive = [fns.big_omega(), fns.small_omega()]
    pairs = list(_coprime_pairs_upto(10_000))
    rng = np.random.default_rng(5)
    big = []
    while len(big) < 2000:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, 1_000_000 // m))
        if math.gcd(m, n) == 1:
            big.append((m, n))
    for f in cases:
        for m, n in pairs[:: 7] + big[::5]:
            lhs = f.eval(m * n, sieve_big)
            rhs = f.eval(m, sieve_big) * f.eval(n, sieve_big)
            if f.integer_valued or isinstance(lhs, Fraction):
                assert lhs == rhs, (f.name, m, n)
            else:
                assert abs(lhs - rhs) < 1e-12, (f.name, m, n)
    for f in additive:
        for m, n in pairs[::19]:
            assert f.eval(m * n, sieve_big) == f.eval(m, sieve_big) + f.eval(n, sieve_big)


def test_complete_multiplicativity(sieve_small):
    complete = [
        fns.liouville(), fns.archimedean(0.8),
        fns.lambda_xi(Constant("sqrt", 3)), dirichlet_character(4, (1,)),
        dirichlet_character(5, (1,)),
    ]
    for f in complete:
        assert f.kind == "completely_multiplicative"
        for m in range(2, 101):
            for n in range(m, 10_000 // m + 1):
                lhs = f.eval(m * n, sieve_small)
                rhs = f.eval(m, sieve_small) * f.eval(n, sieve_small)
                if f.integer_valued:
                    assert lhs == rhs
                else:
                    assert abs(lhs - rhs) < 1e-12


def test_convolution_identities(sieve_small):
    x = 10_000
    mu = sieve_small.table("mobius")[: x + 1].astype(np.int64)
    phi = sieve_small.table("phi")[: x + 1]
    sum_mu = np.zeros(x + 1, dtype=np.int64)
    sum_phi = np.zeros(x + 1, dtype=np.int64)
    for d in range(1, x + 1):
        sum_mu[d::d] += mu[d]
        sum_phi[d::d] += phi[d]
    assert sum_mu[1] == 1 and not sum_mu[2:].any()
    assert np.array_equal(sum_phi[1:], np.arange(1, x + 1))
    sig = fns.sigma()
    for p in (2, 3, 5, 7):
        for a in range(1, 8):
            if p**a <= sieve_small.limit:
                assert sig.eval(p**a, sieve_small) == (p ** (a + 1) - 1) // (p - 1)


def test_squarefree_indicator_is_mobius_squared(sieve_mid):
    x = 100_000
    sq = fns.squarefree_indicator().values_upto(x, sieve_mid)
    mu = sieve_mid.table("mobius")[: x + 1].astype(np.float64)
    assert np.array_equal(sq[1:], (mu * mu)[1:])


def test_bulk_matches_pointwise(sieve_small):
    for f in [
        fns.mobius(), fns.liouville(), fns.euler_phi_ratio(), fns.sigma(),
        fns.tau(), fns.big_omega(), fns.small_omega(),
        fns.lambda_xi(Constant("sqrt", 2)), fns.mu_xi(Constant("golden")),
        fns.archimedean(1.0), dirichlet_character(7, (2,)),
        fns.custom(lambda p, m: Fraction(1, p**m), name="inv"),
        fns.custom(lambda p, m: m * math.log(p), name="von_mangoldt_sum",
                   kind="additive"),
    ]:
        vals = f.values_upto(3000, sieve_small)
        for n in list(range(1, 60)) + [97, 128, 1024, 2310, 2999]:
            want = complex(f.eval(n, sieve_small))
            assert abs(complex(vals[n]) - want) < 1e-12, (f.name, n)


def test_dirichlet_mod4_nonprincipal_exact():
    chi = dirichlet_character(4, (1,))
    t = chi.character_table
    assert t[1 % 4] == 1
    assert t[3 % 4] == -1
    assert t[2 % 4] == 0


def test_dirichlet_mod5_matches_brute_force_homomorphism():
    # 2 is the smallest primitive root mod 5 (brute-force check), so the
    # exponent-1 character sends 2 -> i
    assert smallest_primitive_root(5, 5) == 2
    powers = {pow(2, j, 5) for j in range(1, 4)}
    assert powers == {2, 4, 3}
    chi = dirichlet_character(5, (1,))
    t = chi.character_table
    assert t[2] == 1j
    assert t[3] == -1j
    assert t[4] == -1
    for a in range(1, 5):
        for b in range(1, 5):
            assert abs(t[a * b % 5] - t[a] * t[b]) < 1e-15


def test_principal_character_is_coprime_indicator(sieve_small):
    for d in (1, 2, 6, 12, 45):
        factors = fns.unit_group_structure(d)
        chi = dirichlet_character(d, tuple(0 for _ in factors))
        assert chi.is_principal
        for n in range(1, 200):
            want = 1 if math.gcd(n, d) == 1 else 0
            assert chi.eval(n, sieve_small) == want


def test_character_periodicity_and_value_field(sieve_small):
    for d in (3, 8, 9, 16, 24):
        for chi in all_characters(d):
            t = chi.character_table
            phid = sum(1 for n in range(1, d + 1) if math.gcd(n, d) == 1)
            for n in range(1, 2 * d):
                assert t[n % d] == t[(n + d) % d]
                if math.gcd(n, d) == 1:
                    assert abs(t[n % d] ** phid - 1) < 1e-9  # phi(d)-th root of unity
                else:
                    assert t[n % d] == 0


def test_character_orthogonality_all_moduli():
    for d in range(1, 31):
        for chi in all_characters(d):
            total = chi.character_table[np.arange(1, d + 1) % d].sum()
            if chi.is_principal:
                assert abs(total - sum(1 for n in range(1, d + 1) if math.gcd(n, d) == 1)) < 1e-9
            else:
                assert abs(total) < 1e-9, (d, chi.params)


def _character_table_by_discrete_logs(d, exponents):
    """chi mod d from one discrete-log dict per generator, indexed (a, b) for
    the pair {-1, 5} of 2^k with k >= 3: the construction the group walk
    replaced."""
    factors = fns.unit_group_structure(d)
    table = np.zeros(d, dtype=complex)
    if d == 1:
        table[0] = 1
        return table
    logs = []
    has_minus_five_pair = len(factors) >= 2 and factors[0][0] == factors[1][0]
    for i, (pe, g, order) in enumerate(factors):
        dl = {}
        acc = 1
        if has_minus_five_pair and i == 0:
            for b in range(factors[1][2]):
                dl[acc] = (0, b)
                dl[(-acc) % pe] = (1, b)
                acc = acc * 5 % pe
        else:
            for j in range(order):
                dl[acc] = j
                acc = acc * g % pe
        logs.append((pe, dl, order))
    for n in range(1, d + 1):
        if math.gcd(n, d) != 1:
            continue
        phase = Fraction(0)
        rest, rest_exp = logs, exponents
        if has_minus_five_pair:
            a, b = logs[0][1][n % factors[0][0]]
            phase += Fraction(exponents[0] * a, 2) + Fraction(exponents[1] * b, factors[1][2])
            rest, rest_exp = logs[2:], exponents[2:]
        for (pe, dl, order), k in zip(rest, rest_exp):
            phase += Fraction(k * dl[n % pe], order)
        table[n % d] = root_of_unity(phase.numerator, phase.denominator)
    return table


def test_character_walk_matches_discrete_logs():
    count = 0
    for d in range(1, 65):
        for chi in all_characters(d):
            want = _character_table_by_discrete_logs(d, chi.params["exponents"])
            assert np.array_equal(chi.character_table.view(np.int64),
                                  want.view(np.int64)), chi.params
            count += 1
    assert count == sum(sum(1 for n in range(1, d + 1) if math.gcd(n, d) == 1)
                        for d in range(1, 65))


def _character_table_per_residue(d, exponents):
    """The group walk of dirichlet_character with one root_of_unity per residue."""
    factors = fns.unit_group_structure(d)
    den = math.lcm(*(order for _, _, order in factors))
    residues, phases = [1 % d], [0]
    for (pe, g, order), k in zip(factors, exponents):
        rest = d // pe
        step = 1 + rest * ((g - 1) * pow(rest, -1, pe) % pe)
        residues = [r * pow(step, j, d) % d for r in residues for j in range(order)]
        phases = [(a + k * j * (den // order)) % den for a in phases for j in range(order)]
    table = np.zeros(d, dtype=complex)
    for r, a in zip(residues, phases):
        table[r] = root_of_unity(a, den)
    return table


@pytest.mark.parametrize("d", [720720, 2**20, 100003])
def test_character_table_matches_per_residue_fill(d):
    exponents = [1 + i for i in range(len(fns.unit_group_structure(d)))]
    got = dirichlet_character(d, exponents).character_table
    want = _character_table_per_residue(d, exponents)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _root_of_unity_by_fraction(num, den):
    """root_of_unity as it once reduced its argument, through Fraction."""
    t = Fraction(num, den) % 1
    if t == 0:
        return 1
    if t == Fraction(1, 2):
        return -1
    if t == Fraction(1, 4):
        return 1j
    if t == Fraction(3, 4):
        return -1j
    return cmath.exp(2j * cmath.pi * float(t))


def test_root_of_unity_matches_fraction_reduction():
    rng = np.random.default_rng(5)
    pairs = [(a, b) for b in range(1, 65) for a in range(-2 * b, 2 * b + 1)]
    pairs += [(int(a) * int(b), int(b)) for a, b in zip(rng.integers(-5, 5, 300),
                                                         rng.integers(1, 2**31, 300))]
    pairs += [(int(a), int(b)) for a, b in zip(rng.integers(-2**40, 2**40, 2000),
                                               rng.integers(1, 2**31, 2000))]
    for num, den in pairs:
        got, want = root_of_unity(num, den), _root_of_unity_by_fraction(num, den)
        assert type(got) is type(want), (num, den)
        assert np.array([got], complex).view(np.int64).tolist() == \
            np.array([want], complex).view(np.int64).tolist(), (num, den)


def test_character_tuple_length_mismatch():
    with pytest.raises(CharacterGroupError, match="expected"):
        dirichlet_character(8, (1,))


def test_root_of_unity_exactness():
    assert root_of_unity(1, 2) == -1
    assert root_of_unity(1, 4) == 1j
    assert root_of_unity(7, 4) == -1j
    assert root_of_unity(5, 1) == 1
    assert abs(root_of_unity(1, 3) - complex(-0.5, math.sqrt(3) / 2)) < 1e-15


def test_json_roundtrip():
    for f in [
        fns.mobius(), fns.lambda_xi(Constant("sqrt", 2)),
        dirichlet_character(12, (1, 1)), fns.archimedean(2.5),
    ]:
        g = fns.from_json(f.to_json())
        assert g.name == f.name and g.params == f.params


# -- rule values over prime arrays against the per-prime route ---------------

def _bulk_values_per_prime(fn, x, sieve):
    """bulk_values as one prime_power call per prime power, p then m."""
    ppval = np.zeros(x + 1, dtype=complex)
    for p in sieve.primes(x).tolist():
        q, m = p, 1
        while q <= x:
            ppval[q] = complex(fn.prime_power(p, m))
            q *= p
            m += 1
    if not ppval.imag.any():
        ppval = ppval.real
    return sieve._kernel(lambda p, e: ppval[p.astype(np.int64) ** e], ppval.dtype,
                         fn.kind == "additive", x)


def _concentration_per_prime(fn, target, y, checkpoints, sieve, tolerance=0.0,
                             predicate=None):
    """concentration_scan's partial sums with one prime_power call per prime."""
    if predicate is None:
        if tolerance == 0.0:
            predicate = lambda v: v == target
        else:
            predicate = lambda v: abs(complex(v) - complex(target)) <= tolerance
    return prime_series(sieve, y, checkpoints, lambda primes: [
        1.0 / p if predicate(fn.prime_power(p, 1)) else 0.0 for p in primes.tolist()])[1]


def _rules():
    """Catalog functions and custom rules with int, Fraction, float and complex
    values, each with a target some of its prime values hit."""
    sqrt2 = Constant("sqrt", 2)
    return [
        *((make(), -1) for make in (fns.mobius, fns.liouville)),
        *((make(), 1) for make in (fns.euler_phi_ratio, fns.squarefree_indicator,
                                   fns.big_omega, fns.small_omega, fns.constant_one)),
        (fns.sigma(), 8), (fns.tau(), 2), (fns.archimedean(1.0), 1),
        (dirichlet_character(7, (2,)), 1), (dirichlet_character(5, (1,)), 1j),
        (fns.lambda_xi(rational(Fraction(1, 3))), root_of_unity(1, 3)),
        (fns.kappa_xi(sqrt2), 1), (fns.mu_xi(rational(Fraction(1, 4))), 1j),
        (fns.custom(lambda p, m: p % 5 - 2 * m), -1),
        (fns.custom(lambda p, m: Fraction(p % 3, m)), Fraction(1, 1)),
        (fns.custom(lambda p, m: Fraction(1, p**m)), Fraction(1, 2)),
        (fns.custom(lambda p, m: (p % 4) / 4 + m), 1.25),
        (fns.custom(lambda p, m: m * math.log(p), kind="additive"), math.log(2)),
        (fns.custom(lambda p, m: cmath.exp(1j * (p % 6)) * m), 1),
        # integers past 2^53 (alone, and mixed with small ones into a float
        # array) compare exactly only in Python
        (fns.custom(lambda p, m: 2**53 + p % 3), 2.0**53),
        (fns.custom(lambda p, m: 2**63 if p % 4 == 1 else -1), 2.0**63),
        (fns.custom(lambda p, m: 2**70 + p), 2**70 + 3),
        (fns.custom(lambda p, m: float(p % 4)), 2**53 + 1),
    ]


def test_bulk_values_match_the_per_prime_route(sieve_small):
    x = sieve_small.limit
    for fn, _ in _rules():
        got, want = fns.bulk_values(fn, x, sieve_small), _bulk_values_per_prime(
            fn, x, sieve_small)
        assert got.dtype == want.dtype and np.array_equal(
            got.view(np.uint8), want.view(np.uint8)), fn.name


def test_bulk_values_match_on_one_and_two_threads(monkeypatch):
    # past 2^20: the bands from 2^19 of the split and the kernel run on a pool;
    # each rule's prime-power values are read once and fed to both kernels
    x = 2**20 + 12_345
    one, two = FactorSieve.build(x), FactorSieve.build(x, threads=2)
    kernel, names = one._kernel, []

    def on_both(*args):
        want, got = kernel(*args), two._kernel(*args)
        assert got.dtype == want.dtype and np.array_equal(
            got.view(np.uint8), want.view(np.uint8)), fn.name
        names.append(fn.name)
        return want

    monkeypatch.setattr(one, "_kernel", on_both)
    for fn, _ in _rules():
        fns.bulk_values(fn, x, one)
    assert names == [fn.name for fn, _ in _rules()]


def test_xi_phases_are_taken_once_per_k(monkeypatch):
    # e(xi k) depends on k alone: one frac_mul per distinct k, not one per prime
    fn, calls = fns.kappa_xi(Constant("sqrt", 2)), []
    frac_mul = Constant.frac_mul

    def counted(self, n):
        calls.append(int(n))
        return frac_mul(self, n)

    monkeypatch.setattr(Constant, "frac_mul", counted)
    primes = FactorSieve.build(10**5).primes()
    values, _ = fn.prime_values(primes)
    assert calls == [1] and values == [values[0]] * primes.size
    assert values[0] == fns._e_of(float(frac_mul(Constant("sqrt", 2), np.array(1))))


def test_concentration_scan_matches_the_per_prime_route(sieve_small):
    cps = [10, 100, 1000, sieve_small.limit]
    hits = 0
    for fn, target in _rules():
        for kwargs in ({}, {"tolerance": 1e-9}, {"predicate": lambda v: abs(v) > 1.5}):
            got = concentration_scan(fn, target, sieve_small.limit, cps, sieve_small,
                                     **kwargs).partial_sums
            want = _concentration_per_prime(fn, target,
                                            sieve_small.limit, cps, sieve_small, **kwargs)
            assert got == want.tolist(), (fn.name, target, kwargs)
            hits += got[-1] > 0
    assert hits > 40  # the targets are hit, not only missed


def test_big_integers_compare_as_python_does(sieve_small):
    # numpy would round 2^53 + 1 to 2^53 before comparing
    fn = fns.custom(lambda p, m: 2**53 + 1 if p == 3 else 0)
    assert concentration_scan(fn, 2.0**53, 100, [100], sieve_small).partial_sums == [0.0]
    fn = fns.custom(lambda p, m: 2.0**53 if p == 3 else 0.0)
    assert concentration_scan(fn, 2**53 + 1, 100, [100], sieve_small).partial_sums == [0.0]
    assert concentration_scan(fn, 2**53, 100, [100], sieve_small).partial_sums == [1 / 3]


def test_nonfinite_rule_raises_at_the_first_p_then_m(sieve_small):
    # non-finite at (5, 1) and (2, 2): the loop over p, then m meets (2, 2) first
    rule = lambda p, m: float("nan") if (p, m) in ((5, 1), (2, 2)) else 1.0
    complex_rule = lambda p, m: complex(1, math.inf) if p in (7, 11) else 1j
    for route in (fns.bulk_values, _bulk_values_per_prime):
        with pytest.raises(EvaluationError) as err:
            route(fns.custom(rule), 100, sieve_small)
        assert (err.value.p, err.value.m) == (2, 2)
        assert str(err.value) == "rule returned non-finite value nan at p=2, m=2"
    for route in (concentration_scan, _concentration_per_prime):
        with pytest.raises(EvaluationError) as err:
            route(fns.custom(rule), 1.0, 100, [100], sieve_small)
        assert (err.value.p, err.value.m) == (5, 1)
        with pytest.raises(EvaluationError) as err:
            route(fns.custom(complex_rule), 1j, 100, [100], sieve_small)
        assert (err.value.p, err.value.m) == (7, 1)
        assert str(err.value) == "rule returned non-finite value (1+infj) at p=7, m=1"
