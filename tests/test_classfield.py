"""Verification engines: splitting scans, semi-split scans, separability
sweeps, Frobenius-orbit checks, irreducibility-criterion evidence, the
congruence-obstruction witness search, and density reports."""

import hashlib
import json
import os
import time
from math import isqrt

import pytest

from conftest import deflate, gi
from lemnatomic import classfield, gfq
from lemnatomic.classfield import (
    DensityReport,
    Prop1Report,
    Prop2Report,
    SplittingReport,
    TheoremReport,
    density_report,
    frobenius_orbit_check,
    prop2_evidence,
    semisplit_primes,
    splitting_primes,
    theorem_search,
    verify_prop1,
)
from lemnatomic.cli import dispatch
from lemnatomic.errors import InputError, InternalInconsistency
from lemnatomic.exact import lemnatomic_exact
from lemnatomic.gaussint import (
    GaussInt,
    _odd_prime_walk,
    canonical_associate,
    divides,
    factor,
    format_gauss,
    primes_up_to_norm,
)
from lemnatomic.gfq import (
    NO_ROOT,
    ROOT,
    SPLITS,
    factor_degrees,
    has_root,
    reduce_poly,
    root_status,
    splits_completely,
    squarefree,
)
from lemnatomic.residue import _order_of, class_of, phi_norm, residue_ring, subgroup_generated, unit_group
from lemnatomic.zipoly import discriminant, poly

X_MINUS_1 = poly([-1, 1])
X_SQ_PLUS_1 = poly([1, 0, 1])
X_SQ_MINUS_2 = poly([-2, 0, 1])
# disc = 420: the inert primes 3 and 7, the split primes over 5, and 1+i
X_SQ_MINUS_105 = poly([-105, 0, 1])
# Reductions that lose terms at the split primes over 5, so that k and e of
# h mod pi = X^k * g(X^e) there differ from their values over Z[i]: the X^2
# term of X^4 + 5X^2 + 3 vanishes (e = 4, not 2; disc = 2^4 * 3 * 13^2), and
# X^3 + X + 5 becomes X(X^2 + 1) (k = 1, not 0; disc = -7 * 97).
LOSES_TERMS_AT_5 = {"X^4+5X^2+3": poly([3, 0, 5, 0, 1]), "X^3+X+5": poly([5, 1, 0, 1])}
# X^8 + (4+i)X^4 + 1 loses its X^4 term at 1 - 4i (i -> 13 mod 17) but not at
# its conjugate 1 + 4i (i -> 4); disc = (1+i)^32 (-1+2i)^4 (-1+6i)^4.
LOSES_X4_AT_1_MINUS_4I = poly([1, 0, 0, 0, GaussInt(4, 1), 0, 0, 0, 1])
# X^4 + 21X^2 + 2 loses its X^2 term at the inert primes 3 and 7, neither of
# which divides its discriminant 5999648 = 2^5 * 187489.
LOSES_X2_AT_3_AND_7 = poly([2, 0, 21, 0, 1])


def lam(text: str):
    return lemnatomic_exact(gi(text)).coefficients


def odd_primaries(bound: int):
    return primes_up_to_norm(bound, odd_only=True)


def assert_splitting_law(text: str, bound: int):
    """The split primes of Lambda_beta are exactly those whose primary value
    is 1 modulo 2*(1+i)*beta, checked as an iff over the scan, and the primes
    skipped for dividing the discriminant are exactly beta's primary prime
    factors."""
    beta = gi(text)
    conductor = gi("2") * gi("1+i") * beta
    report = splitting_primes(lam(text), bound)
    assert {pi.value for pi in report.skipped} == {pi.value for pi, _ in factor(beta)[1]}
    split = {pi.value for pi in report.primes}
    for pi in odd_primaries(bound):
        if divides(pi.value, beta):
            continue
        expected = divides(conductor, pi.value - gi("1"))
        assert (pi.value in split) == expected, (text, pi.value)


class TestSplittingPrimes:
    def test_x_squared_plus_one_splits_everywhere(self):
        report = splitting_primes(X_SQ_PLUS_1, 300)
        assert [pi.value for pi in report.primes] == [pi.value for pi in odd_primaries(300)]
        assert report.skipped == ()

    def test_linear_splits_everywhere(self):
        report = splitting_primes(X_MINUS_1, 300)
        assert [pi.value for pi in report.primes] == [pi.value for pi in odd_primaries(300)]

    def test_lemnatomic_splitting_law(self):
        # Prime, prime-power and composite beta, one of them (5+2i) not primary
        for text in ("-3", "-3-4i", "-1+2i", "3-6i", "9", "-11", "5+2i"):
            assert_splitting_law(text, 20000)

    @pytest.mark.slow
    def test_lemnatomic_splitting_law_at_norm_a_million(self):
        # 78 437 primes: the root scan runs in as many ranges as there are CPUs
        assert_splitting_law("-3-4i", 10**6)

    def test_every_listed_prime_actually_splits(self):
        h = lam("-3")
        report = splitting_primes(h, 800)
        assert report.primes  # the law guarantees hits well below this bound
        for pi in report.primes:
            assert splits_completely(reduce_poly(h, pi))

    def test_disc_divisors_skipped(self):
        report = splitting_primes(lam("-1+2i"), 100)
        assert [pi.value for pi in report.skipped] == [gi("-1+2i")]

    def test_zero_discriminant_rejected(self):
        with pytest.raises(InputError):
            splitting_primes(poly([0, 0, 1]), 100)

    def test_non_monic_rejected(self):
        with pytest.raises(InputError):
            splitting_primes(poly([1, 2]), 100)

    def test_constant_rejected(self):
        with pytest.raises(InputError):
            splitting_primes(poly([3]), 100)

    def test_json_dict_shape(self):
        d = splitting_primes(X_SQ_PLUS_1, 50).to_json_dict()
        assert set(d) == {"poly", "bound", "primes", "skipped", "count"}
        assert d["count"] == len(d["primes"])
        json.dumps(d, sort_keys=True)


class TestSemisplitPrimes:
    def test_degree_one_everywhere(self):
        # g = X defines the base field itself: every odd prime is semi-split.
        hits = semisplit_primes(poly([0, 1]), 300)
        assert [pi.value for pi in hits] == [pi.value for pi in odd_primaries(300)]

    def test_quadratic_residue_law(self):
        # X^2 - 2 has a root mod pi iff 2 is a square in the residue field:
        # always for inert primes (the rational subfield is inside the
        # squares of F_{p^2}), and iff 2 is a QR mod p for split primes.
        hits = {pi.value for pi in semisplit_primes(X_SQ_MINUS_2, 600)}
        for pi in odd_primaries(600):
            q = pi.norm
            p = isqrt(q)
            expected = True if p * p == q else pow(2, (q - 1) // 2, q) == 1
            assert (pi.value in hits) == expected

    def test_abelian_field_semisplit_equals_split(self):
        h = lam("-1+2i")
        semis = [pi.value for pi in semisplit_primes(h, 500)]
        split = [pi.value for pi in splitting_primes(h, 500).primes]
        assert semis == split


class TestVerifyProp1:
    @pytest.mark.parametrize("b", ["-3", "-1+2i"])
    def test_sweep_passes(self, b):
        report = verify_prop1(gi(b), 1000)
        assert report.passed
        assert report.failures == ()

    def test_divisors_of_beta_excluded(self):
        report = verify_prop1(gi("-1+2i"), 1000)
        assert report.checked == len(odd_primaries(1000)) - 1

    def test_non_primary_input_normalized(self):
        assert verify_prop1(gi("3"), 200).beta == gi("-3")

    def test_json_dict_shape(self):
        d = verify_prop1(gi("-3"), 200).to_json_dict()
        assert set(d) == {"beta", "bound", "checked", "failures", "passed"}
        assert d["passed"] is True and d["failures"] == []


class TestFrobeniusOrbitCheck:
    def test_inert_case_full_degree(self):
        # class_of(-3) = 2 in F_5*, of order 4: the reduction must be
        # irreducible of degree 4.
        assert frobenius_orbit_check(gi("-1+2i"), gi("-3")) is True
        assert factor_degrees(reduce_poly(lam("-1+2i"), gi("-3"))) == (4,)

    def test_split_prime_gives_linear_factors(self):
        beta = gi("-1+2i")
        pi = splitting_primes(lam("-1+2i"), 500).primes[0]
        assert frobenius_orbit_check(beta, pi) is True
        assert set(factor_degrees(reduce_poly(lam("-1+2i"), pi))) == {1}

    @pytest.mark.parametrize("b", ["-1+2i", "-3"])
    def test_orbit_law_sample(self, b):
        beta = gi(b)
        h = lam(b)
        ring = residue_ring(beta)
        group = unit_group(ring)
        for pi in odd_primaries(300):
            if divides(pi.value, beta):
                continue
            assert frobenius_orbit_check(beta, pi) is True
            degrees = set(factor_degrees(reduce_poly(h, pi)))
            order = _order_of(ring, class_of(pi.value, ring, "primary"), group.order)
            assert degrees == {order}
            assert phi_norm(beta) % order == 0

    def test_prime_dividing_beta_rejected(self):
        with pytest.raises(InputError):
            frobenius_orbit_check(gi("-3"), gi("-3"))

    @pytest.mark.parametrize("beta, pi", [("-3", "5"), ("-1+2i", "21")])
    def test_composite_pi_rejected(self, beta, pi):
        # pi is coprime to beta but not prime: an input error, not a false law.
        with pytest.raises(InputError, match="not a Gaussian prime"):
            frobenius_orbit_check(gi(beta), gi(pi))

    def test_even_prime_rejected(self):
        with pytest.raises(InputError):
            frobenius_orbit_check(gi("-3"), gi("1+i"))

    def test_reduction_not_squarefree_reads_false(self, monkeypatch):
        monkeypatch.setattr(classfield, "squarefree", lambda f: False)
        assert frobenius_orbit_check(gi("-1+2i"), gi("-3")) is False
        assert dispatch(["orbit-check", "-1+2i", "-3"]) == 2

    @pytest.mark.parametrize("fault", ["division", "gcd"])
    @pytest.mark.parametrize("beta, pi", [("-1+2i", None), ("-3-4i", "-7")])
    def test_corrupted_distinct_degree_step_raises(self, monkeypatch, fault, beta, pi):
        # factor_degrees divides f by gcd(f, X^(q^d) - X), which divides it by
        # construction: a remainder there is a fault, raised through the CLI,
        # never a failed law (exit 2).  At the first split prime of -1+2i the
        # quartic splits (d = 1); at the inert -7, Lambda_{-3-4i} has five
        # quartic factors (d = 4, over F_49).
        pi = gi(pi) if pi else splitting_primes(lam(beta), 500).primes[0].value
        assert frobenius_orbit_check(gi(beta), pi) is True
        if fault == "division":
            real_divmod = gfq._divmod

            def corrupted(p, a, b):
                q, r = real_divmod(p, a, b)
                return q, r or (1,)

            monkeypatch.setattr(gfq, "_divmod", corrupted)
        else:
            real_gcd = gfq._gcd

            def corrupted(p, a, b):
                g = real_gcd(p, a, b)
                return g if len(g) == 1 else ((g[0] + 1) % p,) + g[1:]

            monkeypatch.setattr(gfq, "_gcd", corrupted)
        with pytest.raises(InternalInconsistency, match="inexact polynomial division"):
            frobenius_orbit_check(gi(beta), pi)
        with pytest.raises(InternalInconsistency):
            dispatch(["orbit-check", beta, format_gauss(pi)])


class TestProp2Evidence:
    def test_base_field_criterion_satisfied(self):
        report = prop2_evidence(poly([0, 1]), gi("-1+2i"), 100)
        assert report.classes == (gi("1"), gi("2"), gi("3"), gi("4"))
        assert report.group_order == 4
        assert report.subgroup_order == 4
        assert report.criterion_satisfied is True

    def test_own_root_field_primary_mode_fails(self):
        # Classes of the semi-split primes of the root field are all 1 under
        # primary normalization: proper subgroup, criterion not satisfied,
        # consistent with the polynomial splitting in its own root field.
        report = prop2_evidence(lam("-1+2i"), gi("-1+2i"), 500, "primary")
        assert report.classes == (gi("1"),)
        assert report.subgroup_order == 1
        assert report.criterion_satisfied is False
        assert [pi.value for pi in report.skipped] == [gi("-1+2i")]

    def test_own_root_field_raw_mode_contradicts(self):
        # Raw normalization spreads the same primes over the full unit group,
        # which would assert irreducibility of a polynomial that visibly
        # splits: the recorded evidence for the primary reading.
        report = prop2_evidence(lam("-1+2i"), gi("-1+2i"), 500, "raw")
        assert set(report.classes) == {gi("1"), gi("2"), gi("3"), gi("4")}
        assert report.criterion_satisfied is True

    def test_unknown_normalization_rejected(self):
        with pytest.raises(InputError):
            prop2_evidence(poly([0, 1]), gi("-3"), 100, "canonical")

    def test_subgroup_monotone_in_bound(self):
        small = prop2_evidence(X_SQ_MINUS_2, gi("-3"), 150)
        large = prop2_evidence(X_SQ_MINUS_2, gi("-3"), 600)
        assert set(small.classes) <= set(large.classes)
        assert small.subgroup_order <= large.subgroup_order
        assert large.subgroup_order % small.subgroup_order == 0

    def test_beta_normalized_without_the_exact_route(self, monkeypatch):
        want = prop2_evidence(X_SQ_MINUS_2, gi("3"), 300).to_json_dict()
        assert want["beta"] == format_gauss(lemnatomic_exact(gi("3")).beta) == "-3"

        def refuse(beta):
            raise AssertionError("prop2_evidence built the lemnatomic polynomial of beta")

        monkeypatch.setattr(classfield, "lemnatomic_exact", refuse)
        assert prop2_evidence(X_SQ_MINUS_2, gi("3"), 300).to_json_dict() == want
        for bad in ("2", "1+i", "-6+2i", "1", "-i", "0"):
            with pytest.raises(InputError):
                prop2_evidence(X_SQ_MINUS_2, gi(bad), 300)

    def test_json_dict_shape(self):
        d = prop2_evidence(poly([0, 1]), gi("-3"), 100).to_json_dict()
        assert set(d) == {
            "poly",
            "beta",
            "bound",
            "normalization",
            "classes",
            "subgroup_order",
            "group_order",
            "criterion_satisfied",
            "skipped",
        }
        json.dumps(d, sort_keys=True)


class TestTheoremSearch:
    def test_quartic_witness_found(self):
        report = theorem_search(lam("-1+2i"), 800)
        betas = [c.beta for c in report.candidates]
        assert betas == [gi("-1+2i"), gi("-3-4i")]
        by_beta = {c.beta: c for c in report.candidates}
        first = by_beta[gi("-1+2i")]
        assert first.witness is True
        assert first.subgroup_order == 1 and first.group_order == 4
        second = by_beta[gi("-3-4i")]
        # Split primes are 1 mod beta, so mod beta^2 they land inside the
        # order-5 kernel of reduction: a proper subgroup at any bound.
        assert second.witness is True
        assert second.group_order == 20 and second.subgroup_order <= 5
        assert report.witnesses == report.candidates

    def test_trivial_disc_no_candidates(self):
        report = theorem_search(X_MINUS_1, 500)
        assert report.candidates == ()
        assert report.witnesses == ()

    def test_even_disc_without_odd_part_rejected(self):
        with pytest.raises(InputError):
            theorem_search(X_SQ_PLUS_1, 500)

    def test_even_disc_with_odd_part_uses_it(self):
        # disc(X^2 + 3) = -12: candidates come from the odd part -3.
        report = theorem_search(poly([3, 0, 1]), 300)
        assert [c.beta for c in report.candidates] == [gi("-3"), gi("9")]
        assert "odd part" in report.notes

    def test_norm_cap_limits_candidates(self):
        report = theorem_search(lam("-1+2i"), 300, norm_cap=5)
        assert [c.beta for c in report.candidates] == [gi("-1+2i")]

    def test_exponent_bound_limits_candidates(self):
        report = theorem_search(lam("-1+2i"), 300, exponent_bound=1)
        assert [c.beta for c in report.candidates] == [gi("-1+2i")]
        with pytest.raises(InputError):
            theorem_search(lam("-1+2i"), 300, exponent_bound=0)

    def test_exponent_bound_past_norm_cap_changes_nothing(self):
        # four odd primes in disc(X^2 - 105); powers past norm_cap add nothing
        wide = theorem_search(X_SQ_MINUS_105, 100, exponent_bound=10**6)
        assert wide == theorem_search(X_SQ_MINUS_105, 100, exponent_bound=3)
        assert len(wide.candidates) == 22
        assert len(theorem_search(X_SQ_MINUS_105, 100).candidates) == 20

    def test_unknown_normalization_rejected(self):
        with pytest.raises(InputError):
            theorem_search(lam("-1+2i"), 300, normalization="canonical")

    def test_notes_carry_bound_caveat(self):
        report = theorem_search(lam("-1+2i"), 300)
        assert "bound" in report.notes

    def test_json_dict_shape(self):
        d = theorem_search(lam("-1+2i"), 300).to_json_dict()
        assert set(d) == {
            "poly",
            "disc",
            "bound",
            "normalization",
            "candidates",
            "witnesses",
            "notes",
        }
        assert d["witnesses"] == ["-1+2i", "-3-4i"]
        json.dumps(d, sort_keys=True)


def unit_group_reference(primes, beta, normalization):
    """(sorted classes, group order, subgroup order) mod beta of the primes
    not dividing beta, through unit_group, class_of and subgroup_generated."""
    ring = residue_ring(beta)
    group = unit_group(ring)
    as_written = canonical_associate if normalization == "raw" else lambda z: z
    classes = {
        class_of(as_written(pi.value), ring, normalization)
        for pi in primes
        if not divides(pi.value, beta)
    }
    classes = tuple(sorted(classes, key=lambda c: (c.re, c.im)))
    return classes, group.order, len(subgroup_generated(group, classes))


class TestClassReportsMatchUnitGroup:
    """The class reports take the group order from phi_norm and the classes
    off primary values; the unit group and class_of must agree."""

    POLYS = ("X^2-105", "-3", "-3-4i")

    @staticmethod
    def scan_poly(name):
        return X_SQ_MINUS_105 if name == "X^2-105" else lam(name)

    @pytest.mark.parametrize("normalization", ["primary", "raw"])
    @pytest.mark.parametrize("name", POLYS)
    def test_theorem_search(self, name, normalization):
        h = self.scan_poly(name)
        report = theorem_search(h, 2000, normalization=normalization)
        assert report.candidates
        splitting = splitting_primes(h, 2000).primes
        for c in report.candidates:
            _, order, sub = unit_group_reference(splitting, c.beta, normalization)
            assert (c.group_order, c.subgroup_order) == (order, sub)

    @pytest.mark.parametrize("normalization", ["primary", "raw"])
    @pytest.mark.parametrize("name", POLYS)
    def test_prop2_evidence(self, name, normalization):
        h = self.scan_poly(name)
        hits = semisplit_primes(h, 2000)
        for beta in ("-3", "-7", "-1+2i", "-3-4i", "3-6i", "9"):
            report = prop2_evidence(h, gi(beta), 2000, normalization)
            classes, order, sub = unit_group_reference(hits, report.beta, normalization)
            assert report.classes == classes
            assert (report.group_order, report.subgroup_order) == (order, sub)


class TestDensityReport:
    def test_linear_density_one(self):
        report = density_report(X_MINUS_1, 500)
        assert report.ratio == 1.0
        assert report.expected == 1.0

    def test_quartic_density_near_quarter(self):
        report = density_report(lam("-1+2i"), 3000)
        assert report.expected == 0.25
        assert abs(report.ratio - 0.25) < 0.08

    def test_ratio_consistent_with_counts(self):
        report = density_report(X_SQ_MINUS_2, 1000)
        assert report.ratio == report.count_p / report.count_all_odd
        assert report.count_all_odd == len(odd_primaries(1000))

    def test_json_dict_shape(self):
        d = density_report(X_MINUS_1, 200).to_json_dict()
        assert set(d) == {"poly", "bound", "count_P", "count_all_odd", "ratio", "expected"}
        json.dumps(d, sort_keys=True)


class TestSharedScanSetup:
    def test_discriminant_computed_once_per_polynomial(self, monkeypatch):
        g = poly([3, 0, 1])
        seen = []
        real = classfield.discriminant
        monkeypatch.setattr(classfield, "discriminant", lambda h: seen.append(h) or real(h))
        classfield._check_scan_poly.cache_clear()
        splitting_primes(g, 200)
        density_report(g, 200)
        theorem_search(g, 200)
        prop2_evidence(g, gi("-3"), 200)
        semisplit_primes(g, 200)
        assert seen == [g]


@pytest.fixture
def fresh_scan():
    """An empty scan memo before and after the test: the memo outlives it."""
    classfield._scan.cache_clear()
    yield
    classfield._scan.cache_clear()


def count_frobenius(monkeypatch):
    """Record every power modulo a polynomial that the gfq layer computes:
    X^q mod f in the single-prime predicates, Y^((q-1)/e) mod g in the scans."""
    calls = []
    real = gfq._power
    monkeypatch.setattr(gfq, "_power", lambda F, f, e, a=None: calls.append(f) or real(F, f, e, a))
    return calls


def all_reports(h, beta, bound):
    """The five reports that read the root scan of h, each once."""
    return (
        splitting_primes(h, bound),
        density_report(h, bound),
        theorem_search(h, bound),
        semisplit_primes(h, bound),
        prop2_evidence(h, beta, bound),
    )


def divides_reference(bound, modulus):
    """(skipped, tested): the scanned primes split by a Gaussian division of
    modulus, the rule the scan reports used before they read residue fields."""
    skipped, tested = [], []
    for pi in odd_primaries(bound):
        (skipped if divides(pi.value, modulus) else tested).append(pi)
    return skipped, tested


def norms_not_skipped(bound, skipped):
    """The distinct norms of the scanned primes not skipped."""
    return {pi.norm for pi in odd_primaries(bound) if pi not in skipped}


class TestSharedScan:
    def test_splitting_scan_runs_once_across_reports(self, monkeypatch, fresh_scan):
        # one modular power per norm among the primes not dividing disc(h),
        # across all five reports: h is real, so the conjugate primes above
        # p reduce it alike and share one power
        h = lam("-3")
        calls = count_frobenius(monkeypatch)
        report, *_ = all_reports(h, gi("-3"), 3000)
        assert splitting_primes(h, 3000) == report
        assert len(calls) == len(norms_not_skipped(3000, report.skipped))

    def test_root_scan_runs_once_across_reports(self, monkeypatch, fresh_scan):
        calls = count_frobenius(monkeypatch)
        report = prop2_evidence(X_SQ_MINUS_105, gi("-3"), 2000)
        semisplit_primes(X_SQ_MINUS_105, 2000)
        prop2_evidence(X_SQ_MINUS_105, gi("-1+2i"), 2000, normalization="raw")
        all_reports(X_SQ_MINUS_105, gi("-7"), 2000)
        assert len(calls) == len(norms_not_skipped(2000, report.skipped))

    @pytest.mark.parametrize("name", ["-3-4i", "X^8+(4+i)X^4+1"])
    def test_complex_scan_takes_one_power_per_prime(self, name, monkeypatch, fresh_scan):
        # Lambda_(-3-4i) and X^8 + (4+i)X^4 + 1 have a coefficient whose
        # imaginary part no odd p divides, so they reduce differently at the
        # two conjugate primes above each split p: each takes its own power
        h = poly([1, 0, 0, 0, gi("4+i"), 0, 0, 0, 1]) if name.startswith("X") else lam(name)
        calls = count_frobenius(monkeypatch)
        report, *_ = all_reports(h, gi("-3-4i"), 3000)
        assert len(calls) == len(odd_primaries(3000)) - len(report.skipped)

    @pytest.mark.parametrize(
        "name",
        ["X^2-105", "-1+2i", "-3", "-3-4i", "3-6i", "-7", *LOSES_TERMS_AT_5, "X^4+21X^2+2"],
    )
    def test_splitting_skips_match_division(self, name, fresh_scan):
        named = {"X^2-105": X_SQ_MINUS_105, "X^4+21X^2+2": LOSES_X2_AT_3_AND_7, **LOSES_TERMS_AT_5}
        h = named.get(name) or lam(name)
        skipped, tested = divides_reference(2000, discriminant(h))
        report = splitting_primes(h, 2000)
        assert list(report.skipped) == skipped
        assert list(report.primes) == [pi for pi in tested if splits_completely(reduce_poly(h, pi))]
        assert semisplit_primes(h, 2000) == [pi for pi in tested if has_root(reduce_poly(h, pi))]
        assert list(classfield._scan(h, 2000)) == [
            classfield._SKIP if pi in skipped else root_status(reduce_poly(h, pi))
            for pi in odd_primaries(2000)
        ]

    @pytest.mark.parametrize("beta", ["-3", "-7", "-1+2i", "3-6i", "-11"])
    def test_prop2_matches_division_when_beta_shares_a_prime(self, beta, fresh_scan):
        beta = gi(beta)
        ring = residue_ring(beta)
        skipped, tested = divides_reference(2000, discriminant(X_SQ_MINUS_105))
        hits = [
            pi
            for pi in tested
            if not divides(pi.value, beta) and has_root(reduce_poly(X_SQ_MINUS_105, pi))
        ]
        report = prop2_evidence(X_SQ_MINUS_105, beta, 2000)
        assert list(report.skipped) == skipped
        assert report.classes == tuple(
            sorted({class_of(pi.value, ring) for pi in hits}, key=lambda c: (c.re, c.im))
        )

    @pytest.mark.parametrize("beta", ["-3", "-3-4i", "3-6i"])
    def test_prop1_checks_the_primes_not_dividing_beta(self, beta, fresh_scan):
        beta = gi(beta)
        skipped, tested = divides_reference(2000, beta)
        report = verify_prop1(beta, 2000)
        assert report.checked == len(tested)
        status = classfield._sweep(lam(format_gauss(beta)), 2000, beta)
        assert classfield._primes(2000, status, (classfield._SKIP,)) == skipped

    @pytest.mark.parametrize("beta", ["-3", "-3-4i", "3-6i", "9"])
    def test_sweep_matches_squarefree_prime_by_prime(self, beta):
        beta = gi(beta)
        h = lam(format_gauss(beta))
        primes = odd_primaries(2000)
        assert any(pi.kind == "inert" and not divides(pi.value, beta) for pi in primes)
        want = [
            classfield._SKIP if divides(pi.value, beta) else squarefree(reduce_poly(h, pi))
            for pi in primes
        ]
        assert list(classfield._sweep(h, 2000, beta)) == want

    def test_sweep_reports_primes_where_the_reduction_is_not_squarefree(self):
        # disc(X^2 + X + 19) = -75 = -3 * (2+i)^2 (2-i)^2: the reduction has a
        # double root at the inert prime -3 and at both primes above 5
        h = poly([19, 1, 1])
        status = classfield._sweep(h, 2000, gi("-7"))
        failures = classfield._primes(2000, status, (False,))
        assert [pi.value for pi in failures] == [gi("-1+2i"), gi("-1-2i"), gi("-3")]
        assert classfield._primes(2000, status, (classfield._SKIP,))[0].value == gi("-7")
        for pi, s in zip(odd_primaries(2000), status):
            if s != classfield._SKIP:
                assert s == squarefree(reduce_poly(h, pi)), pi

    def test_sweep_with_zero_discriminant_fails_every_prime_not_skipped(self):
        h = poly([1, -2, 1])  # (X - 1)^2
        status = classfield._sweep(h, 500, gi("-3"))
        primes = odd_primaries(500)
        assert list(status) == [classfield._SKIP if pi.value == gi("-3") else 0 for pi in primes]

    def test_term_wise_reduction_where_conjugate_primes_differ(self, fresh_scan):
        # h = X^8 + 1 = g(X^8), g = Y + 1, at 1 - 4i; g = Y^2 + 8Y + 1 (e = 4) at 1 + 4i
        h = LOSES_X4_AT_1_MINUS_4I
        cases = (("1-4i", (0, (1, 1), 8), SPLITS), ("1+4i", (0, (1, 8, 1), 4), NO_ROOT))
        for pi, deflated, status in cases:
            f = reduce_poly(h, gi(pi))
            assert deflate(17, [(j, c) for j, c in enumerate(f.coeffs) if c]) == deflated
            assert root_status(f) == status
        primes = odd_primaries(3000)
        scan = classfield._scan(h, 3000)
        skipped = [pi.value for pi, s in zip(primes, scan) if s == classfield._SKIP]
        assert skipped == [gi("-1+2i"), gi("-1+6i")]
        for pi, s in zip(primes, scan):
            if s != classfield._SKIP:
                assert s == root_status(reduce_poly(h, pi)), pi

    def test_memo_is_bounded_and_holds_bytes(self, fresh_scan):
        info = classfield._scan.cache_info()
        assert info.maxsize is not None and info.maxsize > 0
        status = classfield._scan(X_SQ_MINUS_105, 500)
        assert type(status) is bytes
        assert len(status) == len(odd_primaries(500))
        assert set(status) <= {classfield._SKIP, NO_ROOT, ROOT, SPLITS}
        hits = classfield._scan.cache_info().hits
        all_reports(X_SQ_MINUS_105, gi("-3"), 500)
        # the splitting and root reports share that one entry
        assert classfield._scan.cache_info().hits == hits + 5
        assert classfield._scan.cache_info().currsize == 1

    @pytest.mark.parametrize("name", ["X-5", "X^2-105", "-3", "-3-4i", *LOSES_TERMS_AT_5])
    def test_root_status_matches_single_prime_predicates(self, name):
        h = {"X-5": poly([-5, 1]), "X^2-105": X_SQ_MINUS_105, **LOSES_TERMS_AT_5}.get(name) or lam(name)
        primes = odd_primaries(2000)
        assert {-3, -7, -11, -19, -23, -31, -43} <= {pi.value.re for pi in primes if pi.kind == "inert"}
        for pi in primes:
            f = reduce_poly(h, pi)
            status = root_status(f)
            assert (status == SPLITS) == splits_completely(f), pi
            assert (status >= ROOT) == has_root(f), pi


SPLIT_BOUND = 3000  # 430 primes: three ranges of at least SPLIT_FLOOR
SPLIT_FLOOR = 100


class RangeFailure(Exception):
    """Raised inside a range of the root scan by the tests below."""


@pytest.fixture
def split_scan(monkeypatch):
    """Root scans cut into three ranges, two of them in forked children, at
    norm SPLIT_BOUND on any host; yields the pids the parent forked."""
    monkeypatch.setattr(classfield, "_RANGE_FLOOR", SPLIT_FLOOR)
    monkeypatch.setattr(classfield, "_cpus", lambda: 3)
    forks, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    classfield._scan.cache_clear()
    yield forks
    classfield._scan.cache_clear()


def one_range_scan(h, bound):
    """The root scan as a single range, outside the memo."""
    disc = classfield._root_disc(h)
    walk = _odd_prime_walk(bound)
    terms = [(j, c.re, c.im) for j, c in enumerate(h.coeffs) if not c.is_zero()]
    return classfield._scan_range(disc, terms, walk, 0, len(walk) // 4)


def range_cuts(bound):
    count = len(_odd_prime_walk(bound)) // 4
    return [count * k // 3 for k in range(4)]


def patch_range(monkeypatch, replace):
    """Route every range of the root scan through replace(in_child, lo, hi,
    work), where work() computes the range."""
    parent, real = os.getpid(), classfield._scan_range

    def wrapped(disc, terms, walk, lo, hi):
        return replace(os.getpid() != parent, lo, hi, lambda: real(disc, terms, walk, lo, hi))

    monkeypatch.setattr(classfield, "_scan_range", wrapped)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPLIT_POLYS = {"-3": lam("-3"), "-3-4i": lam("-3-4i"), "X^8+(4+i)X^4+1": LOSES_X4_AT_1_MINUS_4I}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the root scan splits only where os.fork exists")
class TestSplitScan:
    @pytest.mark.parametrize("name", SPLIT_POLYS)
    def test_split_scan_is_byte_identical_to_one_range(self, name, split_scan):
        h = SPLIT_POLYS[name]
        assert classfield._scan(h, SPLIT_BOUND) == one_range_scan(h, SPLIT_BOUND)
        assert len(split_scan) == 2
        assert_no_child_left()

    def test_a_cut_falls_between_conjugate_primes(self):
        # Lambda_-3 is real: the second range starts at the conjugate of the
        # prime its first range ends on, so neither reuses the other's power
        walk = _odd_prime_walk(SPLIT_BOUND)
        cut = range_cuts(SPLIT_BOUND)[2]
        assert walk[4 * cut - 2] == walk[4 * cut + 2] and walk[4 * cut + 1]

    def test_one_range_when_two_would_fall_below_the_floor(self, split_scan, monkeypatch):
        count = len(_odd_prime_walk(SPLIT_BOUND)) // 4
        monkeypatch.setattr(classfield, "_RANGE_FLOOR", count // 2 + 1)
        assert classfield._scan(lam("-3"), SPLIT_BOUND) == one_range_scan(lam("-3"), SPLIT_BOUND)
        assert split_scan == []

    def test_failed_fork_is_scanned_in_the_parent(self, split_scan, monkeypatch):
        def fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", fork)
        h = lam("-3-4i")
        assert classfield._scan(h, SPLIT_BOUND) == one_range_scan(h, SPLIT_BOUND)
        assert_no_child_left()

    def test_child_exiting_nonzero_is_rescanned_in_the_parent(self, split_scan, monkeypatch):
        # the child sends as many bytes as its range holds, all wrong, then exits 3
        parent, real_exit = os.getpid(), os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(code if os.getpid() == parent else 3))
        in_parent = []

        def replace(in_child, lo, hi, work):
            if in_child:
                return bytes(hi - lo)
            in_parent.append(lo)
            return work()

        h = lam("-3-4i")
        want = one_range_scan(h, SPLIT_BOUND)
        patch_range(monkeypatch, replace)
        assert classfield._scan(h, SPLIT_BOUND) == want
        assert len(split_scan) == 2 and in_parent == range_cuts(SPLIT_BOUND)[:3]
        assert_no_child_left()

    def test_child_sending_too_few_bytes_is_rescanned_in_the_parent(self, split_scan, monkeypatch):
        in_parent = []

        def replace(in_child, lo, hi, work):
            if in_child:
                return work()[:-1]
            in_parent.append(lo)
            return work()

        h = lam("-3")
        want = one_range_scan(h, SPLIT_BOUND)
        patch_range(monkeypatch, replace)
        assert classfield._scan(h, SPLIT_BOUND) == want
        assert len(split_scan) == 2 and in_parent == range_cuts(SPLIT_BOUND)[:3]
        assert_no_child_left()

    def test_exception_in_a_range_keeps_its_type(self, split_scan, monkeypatch):
        last = range_cuts(SPLIT_BOUND)[2]

        def replace(in_child, lo, hi, work):
            if lo == last:
                raise RangeFailure(f"range from {lo}")
            return work()

        patch_range(monkeypatch, replace)
        with pytest.raises(RangeFailure, match=f"range from {last}"):
            classfield._scan(lam("-3-4i"), SPLIT_BOUND)
        assert len(split_scan) == 2
        assert_no_child_left()

    def test_interrupted_parent_leaves_no_child(self, split_scan, monkeypatch):
        def replace(in_child, lo, hi, work):
            if in_child:
                time.sleep(30)  # still running when the parent is interrupted
                return work()
            raise KeyboardInterrupt

        patch_range(monkeypatch, replace)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            classfield._scan(lam("-3-4i"), SPLIT_BOUND)
        assert len(split_scan) == 2
        assert_no_child_left()
        assert time.perf_counter() - start < 10

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states under /proc")
    def test_child_whose_parent_is_gone_stops(self, split_scan, monkeypatch):
        # a middle process forks the scan's children, sends their pids and
        # leaves by os._exit, which reaps nothing; the children, asleep in
        # their ranges, must stop on their own
        read_end, write_end = os.pipe()

        def replace(in_child, lo, hi, work):
            if lo:
                time.sleep(30)
                return work()
            os.write(write_end, json.dumps(split_scan).encode("ascii") + b"\n")
            os._exit(0)

        patch_range(monkeypatch, replace)
        middle = os.fork()
        if not middle:
            try:
                classfield._scan(lam("-3"), SPLIT_BOUND)
            finally:
                os._exit(1)
        os.close(write_end)
        with open(read_end, "rb") as pipe:
            children = json.loads(pipe.readline())  # the children hold the write end too
        assert os.waitstatus_to_exitcode(os.waitpid(middle, 0)[1]) == 0
        assert len(children) == 2

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat", "rb") as stat:
                    return stat.read().rsplit(b")", 1)[1].split()[0] != b"Z"
            except FileNotFoundError:
                return False

        deadline = time.perf_counter() + 10
        while any(map(running, children)) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert not any(map(running, children))


# SHA-256 of each report's sorted-key JSON on Lambda_{-3-4i} (degree 20) at
# norm bound 2000, recorded from the per-coefficient scans before the packed
# split-prime kernel replaced them.
DEGREE_20_DIGESTS = {
    "verify_prop1": "43582403fba7d4d136cde90ec3b1312dd7cb836ed99350d09c9b50d4be83ee5d",
    "splitting_primes": "54bbe3b1202527998248ce96bbf4137528f01bbf47ac9c9f25ce9713c1cc8740",
    "density_report": "526ea5befa3f5dc14466c8ea1b376b1ae90d680fe8bf04c559ca4fbde7aef369",
    "theorem_search": "c02e48047364e3db6e05f1845e2f357f3879cde9eef587134df18ee791bc0b82",
    "prop2_evidence": "422bbc80c7d7b2ed9054ddcb781a20b01f128ddc6e2c45201ec866db5d277d3e",
}


def test_degree_20_reports_unchanged():
    beta = gi("-3-4i")
    h = lam("-3-4i")
    reports = {
        "verify_prop1": verify_prop1(beta, 2000),
        "splitting_primes": splitting_primes(h, 2000),
        "density_report": density_report(h, 2000),
        "theorem_search": theorem_search(h, 2000),
        "prop2_evidence": prop2_evidence(h, beta, 2000),
    }
    digests = {
        name: hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode("ascii")).hexdigest()
        for name, report in reports.items()
    }
    assert digests == DEGREE_20_DIGESTS
