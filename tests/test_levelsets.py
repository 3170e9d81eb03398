"""Level-set membership, enumeration, densities, concentration scans."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from katailab import functions as fns
from katailab.constants import Constant, rational
from katailab.levelsets import (
    Abundant,
    Deficient,
    GenericLevel,
    Intersection,
    IntervalSetMod1,
    KFree,
    OmegaMod,
    OmegaRot,
    PhiRatioBelow,
    Squarefree,
    TauMod,
    TruncationError,
    concentration_scan,
    empirical_density,
    enumerate_members,
    first_members,
    from_json,
)

mpmath.mp.dps = 50


def brute_sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_membership_examples(sieve_small):
    assert Squarefree().contains(10, sieve_small).member
    assert not Squarefree().contains(12, sieve_small).member
    assert Abundant().contains(12, sieve_small).member  # sigma(12)=28 > 24
    assert not Abundant().contains(6, sieve_small).member  # perfect: strict
    assert Deficient().contains(7, sieve_small).member
    assert not Deficient().contains(6, sieve_small).member


def test_big_omega_rot_example(sieve_small):
    # {2*sqrt(2)} = 0.8284... lies outside [0, 1/2)
    window = IntervalSetMod1([(0, Fraction(1, 2), "[)")])
    spec = OmegaRot(Constant("sqrt", 2), window)
    v = spec.contains(6, sieve_small)
    assert not v.member and not v.boundary
    frac = mpmath.frac(2 * mpmath.sqrt(2))
    assert abs(float(frac) - 0.82842712) < 1e-7  # oracle for the verdict above


def test_rot_boundary_flag(sieve_small):
    # alpha = 1/4 puts Omega(4)=2 exactly on the endpoint 1/2: flagged,
    # verdict by strict comparison (1/2 outside [0, 1/2))
    window = IntervalSetMod1([(0, Fraction(1, 2), "[)")])
    spec = OmegaRot(rational(Fraction(1, 4)), window)
    v = spec.contains(4, sieve_small)
    assert not v.member and v.boundary


def test_enumerate_examples(sieve_small):
    assert list(enumerate_members(Squarefree(), 10, sieve_small)) == [1, 2, 3, 5, 6, 7, 10]
    assert list(enumerate_members(OmegaMod(2, 0), 10, sieve_small)) == [1, 4, 6, 9, 10]
    # oracle: brute force over sigma(n) vs 2n
    brute = [n for n in range(1, 31) if brute_sigma(n) > 2 * n]
    assert list(enumerate_members(Abundant(), 30, sieve_small)) == brute == [12, 18, 20, 24, 30]


def all_variants():
    window = IntervalSetMod1([(Fraction(1, 10), Fraction(2, 5), "[)")])
    return [
        Squarefree(),
        KFree(3),
        OmegaMod(3, 1, "small_omega"),
        OmegaMod(2, 0, "big_omega"),
        OmegaMod(200, 1),  # moduli above the int8 range of the count tables
        OmegaMod(130, 3, "small_omega"),
        Intersection(OmegaMod(2, 1, "small_omega"), OmegaMod(3, 0, "big_omega")),
        OmegaRot(Constant("sqrt", 2), window, "big_omega"),
        OmegaRot(Constant("golden"), window, "small_omega"),
        Abundant(),
        Deficient(),
        PhiRatioBelow(rational(Fraction(1, 2))),
        PhiRatioBelow(rational("0.35")),
        PhiRatioBelow(rational("0.607927101")),
        PhiRatioBelow(Constant("log", 2)),
        TauMod(4, 1),
        GenericLevel(fns.mobius(), -1),
        GenericLevel(fns.lambda_xi(Constant("sqrt", 2)), 1.0, tolerance=1e-9),
        Intersection(GenericLevel(fns.small_omega(), 2), Squarefree()),
    ]


def test_enumerate_membership_agreement_exhaustive(sieve_small):
    x = 10_000
    for spec in all_variants():
        table = spec.members_upto(x, sieve_small)
        members = set(enumerate_members(spec, x, sieve_small))
        for n in range(1, x + 1):
            m = spec.contains(n, sieve_small).member
            assert m == bool(table[n]) == (n in members), (spec.name, n)


def test_phi_ratio_rejects_long_rational_threshold(tmp_path):
    from katailab.cli import main

    # a pasted 6/pi^2: its denominator 10^16 would wrap phi * den in int64
    with pytest.raises(ValueError, match="shorter decimal"):
        PhiRatioBelow(rational("0.6079271018540267"))
    with pytest.raises(ValueError, match="shorter decimal"):
        PhiRatioBelow(rational(Fraction(1, 2**31 + 1)))
    PhiRatioBelow(rational(Fraction(2**31 - 1, 2**31)))  # the longest accepted
    out = tmp_path / "d.csv"
    assert main(["density", "--set", "phi_below:0.6079271018540267", "--x", "1000",
                 "--csv", str(out)]) == 2
    assert not out.exists()


def test_phi_ratio_long_denominator_agrees_on_both_routes(sieve_mid):
    # phi is an int32 table: phi * den must widen to int64, or it wraps into
    # false members; 1234567/2147483647 has none below 10^5, the other many
    x = 100_000
    for t in (Fraction(1234567, 2147483647), Fraction(1073741823, 2147483647)):
        spec = PhiRatioBelow(rational(t))
        table = spec.members_upto(x, sieve_mid)
        assert [spec.contains(n, sieve_mid).member for n in range(1, x + 1)] \
            == table[1:].tolist(), t


def test_multiplicative_set_closure(sieve_small):
    sq = Squarefree()
    for spec in all_variants():
        inter = Intersection(spec, sq)
        for n in range(1, 10_001, 7):
            want = spec.contains(n, sieve_small).member and sq.contains(n, sieve_small).member
            assert inter.contains(n, sieve_small).member == want


def test_kfree_is_multiplicative_set_closure_under_coprime_products(sieve_small):
    spec = KFree(3)
    assert spec.is_multiplicative_set
    rng = np.random.default_rng(11)
    for _ in range(400):
        m = int(rng.integers(2, 100))
        n = int(rng.integers(2, 10_000 // m))
        if math.gcd(m, n) != 1:
            continue
        lhs = spec.contains(m * n, sieve_small).member
        rhs = spec.contains(m, sieve_small).member and spec.contains(n, sieve_small).member
        assert lhs == rhs


def test_tau_mod_against_character_formulation(sieve_small):
    # tau(n) = r mod b iff chi(tau(n)) = chi(r) for every character chi mod b
    for b in (3, 4, 5):
        for r in range(1, b):
            if math.gcd(b, r) != 1:
                continue
            spec = TauMod(b, r)
            chis = list(fns.all_characters(b))
            for n in range(1, 10_001):
                t = fns.tau().eval(n, sieve_small)
                via_chars = all(
                    abs(chi.character_table[t % b] - chi.character_table[r % b]) < 1e-12
                    for chi in chis
                )
                assert spec.contains(n, sieve_small).member == via_chars, (b, r, n)


def test_phi_ratio_below_exact_rational(sieve_small):
    spec = PhiRatioBelow(rational(Fraction(1, 2)))
    phi = sieve_small.table("phi")
    for n in range(1, 5000):
        assert spec.contains(n, sieve_small).member == (2 * int(phi[n]) < n)


def test_density_trivial_and_squarefree(sieve_small):
    rep = empirical_density(Squarefree(), [10], sieve_small)
    assert rep.densities == [0.7]


def test_density_closed_form_squarefree(sieve_big):
    rep = empirical_density(Squarefree(), [10**5, 10**6, 10**7], sieve_big)
    target = 6 / float(mpmath.pi) ** 2
    assert abs(rep.last_value - target) < 5e-4
    assert rep.max_oscillation_last_decade < 5e-4


def test_density_omega_parity_half(sieve_big):
    rep = empirical_density(OmegaMod(2, 0), [10**6, 10**7], sieve_big)
    assert abs(rep.last_value - 0.5) < 0.01


def test_density_values_in_unit_interval_and_settling(sieve_big):
    grid = [10**4, 10**5, 10**6, 10**7]
    for spec in (Squarefree(), Abundant(), PhiRatioBelow(rational(Fraction(1, 2)))):
        rep = empirical_density(spec, grid, sieve_big)
        assert all(0.0 <= d <= 1.0 for d in rep.densities)
        jumps = [abs(a - b) for a, b in zip(rep.densities, rep.densities[1:])]
        assert jumps[-1] <= jumps[0] + 1e-12  # oscillation settles on this grid


def test_first_members_and_truncation(sieve_small):
    first = first_members(Squarefree(), 7, sieve_small)
    assert list(first) == [1, 2, 3, 5, 6, 7, 10]
    with pytest.raises(TruncationError, match="members up to"):
        first_members(GenericLevel(fns.tau(), 2), 5000, sieve_small)  # primes < 10^4


def test_concentration_scan_liouville(sieve_small):
    # oracle: direct summation of 1/p over the 25 primes <= 100
    primes = [p for p in range(2, 101) if all(p % q for q in range(2, p))]
    mertens = sum(1.0 / p for p in primes)
    rep = concentration_scan(fns.liouville(), -1, 100, [10, 100], sieve_small)
    assert abs(rep.partial_sums[-1] - mertens) < 1e-12
    assert abs(mertens - 1.8028) < 1e-3
    zero = concentration_scan(fns.liouville(), +1, 100, [10, 100], sieve_small)
    assert zero.partial_sums == [0.0, 0.0]


def test_concentration_scan_dirichlet(sieve_small):
    # primes = 1 mod 4 up to 100, matched through the character value 1
    chi = fns.dirichlet_character(4, (1,))
    rep = concentration_scan(chi, 1, 100, [100], sieve_small)
    oracle = sum(
        1.0 / p for p in range(2, 101)
        if all(p % q for q in range(2, p)) and p % 4 == 1
    )
    assert abs(rep.partial_sums[-1] - oracle) < 1e-12
    assert abs(oracle - 0.4921) < 1e-4


def test_concentration_scan_slope_advisory(sieve_big):
    grid = [10**4, 10**5, 10**6, 10**7]
    diverging = concentration_scan(fns.liouville(), -1, 10**7, grid, sieve_big)
    assert diverging.slope > 0.8  # Mertens: partial sums track log log y + M
    converging = concentration_scan(fns.euler_phi_ratio(), 1, 10**7, grid, sieve_big)
    assert converging.partial_sums[-1] == 0.0  # phi(p)/p = 1 - 1/p is never 1
    assert converging.slope == 0.0


def test_concentration_scan_refuses_a_bad_tolerance(sieve_small):
    for tolerance in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match=r"finite tolerance >= 0, got (nan|-1.0|inf)"):
            concentration_scan(fns.mobius(), -1, 1000, [1000], sieve_small,
                               tolerance=tolerance)


def test_concentration_scan_nondecreasing(sieve_mid):
    rep = concentration_scan(fns.mobius(), -1, 10**5, [10, 100, 10**3, 10**4, 10**5], sieve_mid)
    assert all(a <= b + 1e-15 for a, b in zip(rep.partial_sums, rep.partial_sums[1:]))


def test_json_roundtrip_all_variants(sieve_small):
    for spec in all_variants():
        clone = from_json(spec.to_json())
        assert clone.to_json() == spec.to_json()
        for n in (1, 2, 12, 30, 97, 720, 9973):
            assert (clone.contains(n, sieve_small).member
                    == spec.contains(n, sieve_small).member)


def test_interval_set_validation():
    with pytest.raises(ValueError, match="overlap"):
        IntervalSetMod1([(0, Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4))])
    with pytest.raises(ValueError, match="out of order"):
        IntervalSetMod1([(Fraction(1, 2), Fraction(1, 4))])


def test_concentration_scan_custom_predicate(sieve_small):
    # generalized matching rule: primes where the value is NOT 1, the shape of
    # the torus continuity criteria
    f = fns.kappa_xi(rational(Fraction(1, 3)))
    rep = concentration_scan(f, None, 100, [100], sieve_small,
                             predicate=lambda v: abs(v - 1) > 1e-12)
    oracle = sum(1.0 / p for p in range(2, 101) if all(p % q for q in range(2, p)))
    assert abs(rep.partial_sums[-1] - oracle) < 1e-12  # kappa(p) = e(1/3) != 1


def test_phi_ratio_real_threshold_float_comparison(sieve_small):
    from katailab.constants import Constant

    spec = PhiRatioBelow(Constant("log", 2))  # ln 2 = 0.6931..., an irrational cut
    phi = sieve_small.table("phi")
    t = float(Constant("log", 2))
    for n in range(1, 2000):
        v = spec.contains(n, sieve_small)
        assert v.member == (int(phi[n]) / n < t)
        assert not v.boundary  # phi/n is rational, never within 1e-12 of ln 2
