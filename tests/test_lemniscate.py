"""Arbitrary-precision numerics: the constant, the sl pair, torsion values,
and the numeric lemnatomic pipeline."""

import itertools
import random

import pytest
from mpmath import mp, mpc, mpf

from conftest import gi
from lemnatomic import lemniscate
from lemnatomic.errors import InputError, PoleProximity, PrecisionLoss, RoundingUnstable
from lemnatomic.exact import LemnatomicRecord, lemnatomic_exact, record_checksum
from lemnatomic.gaussint import ONE, GaussInt, gauss_divmod
from lemnatomic.lemniscate import (
    GUARD,
    _check_distinct,
    _even_lift,
    _frac_bits,
    _fx,
    _is_pole,
    _omega,
    _orbit_plan,
    _series_coeffs,
    _sl_fx,
    _sl_raw,
    _unit_orbits,
    big_complex,
    lemniscate_constant,
    lemnatomic_numeric,
    pair_defect,
    sl_eval,
    sl_pair_add,
    torsion_points,
    torsion_values,
)
from lemnatomic.residue import phi_norm, residue_ring

BITS = 256
OMEGA_DIGITS = "1.311028777146059905232419794945559706841377475715811581408410851900395"

# Record checksums of the numeric route at two rungs that reject 256 bits and
# accept 512, frozen from the mpmath evaluation the fixed-point kernel replaced.
ESCALATING = {
    "29": "4d3cbd902b26bc387b52da5ba299b0078ac3028fa72e961552bea9d152c9f3be",
    "-31": "42e97162aa9cfe450f082f5f80385beee0c88efe00436de6128d18776348424d",
}


def rand_point(rng, scale=0.4, bits=BITS):
    return big_complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale), bits)


def _pair_add_reference(s1, c1, s2, c2):
    den = 1 + s1 * s1 * s2 * s2
    num = s1 * c2 + s2 * c1
    num_d = c1 * c2 - 2 * s1**3 * s2
    den_d = 2 * s1 * c1 * s2 * s2
    return num / den, (num_d * den - num * den_d) / (den * den)


def _sl_mpmath_reference(z, bits):
    """(sl z, sl' z, halvings) by mpmath floats at bits + GUARD: halve to
    |w| <= 1/4, sum the Maclaurin series term by term, double back by the
    addition law.  The floating evaluation the fixed-point kernel replaced."""
    with mp.workprec(bits + GUARD):
        halvings = 0
        w = z
        while abs(w) > mpf(1) / 4:
            w = w / 2
            halvings += 1
        A = _series_coeffs(bits)
        w4 = w**4
        s = mpf(0)
        c = mpf(0)
        pw = mpc(1)
        for k in range(len(A)):
            s += A[k] * pw
            c += (4 * k + 1) * A[k] * pw
            pw *= w4
        s *= w
        for _ in range(halvings):
            s, c = _pair_add_reference(s, c, s, c)
        return s, c, halvings


def _reduce_mod_true_lattice_reference(z, bits):
    """z reduced modulo 2(1+i)*omega*Z[i] by mpmath floats at the working
    precision, coordinates rounded half toward -infinity.  The floating
    reduction the integer one replaced."""
    om = _omega(bits + GUARD)
    gen = 2 * mpc(om, om)
    w = z / gen
    m = int(mp.ceil(w.real - mpf(1) / 2))
    n = int(mp.ceil(w.imag - mpf(1) / 2))
    return z - gen * mpc(m, n)


class TestLemniscateConstant:
    def test_decimal_expansion(self):
        om = lemniscate_constant(BITS)
        with mp.workprec(BITS + 16):
            assert abs(om.re - mpf(OMEGA_DIGITS)) < mpf(2) ** -220
            assert om.im == 0

    def test_agm_identity(self):
        om = lemniscate_constant(BITS)
        with mp.workprec(BITS + 16):
            ratio = 2 * om.re * mp.agm(1, mp.sqrt(2)) / mp.pi
            assert abs(ratio - 1) < mpf(2) ** -(BITS - 8)

    def test_precision_doubling_stable(self):
        lo = lemniscate_constant(BITS)
        hi = lemniscate_constant(2 * BITS)
        with mp.workprec(2 * BITS):
            assert abs(lo.re - hi.re) < mpf(2) ** -(BITS - 4)

    def test_minimum_precision(self):
        with pytest.raises(InputError):
            lemniscate_constant(32)


class TestSlEval:
    def test_zero(self):
        p = sl_eval(big_complex(0, 0, BITS))
        assert p.s.to_mpc() == 0
        assert p.c.to_mpc() == 1

    def test_value_at_omega(self):
        om = lemniscate_constant(BITS)
        p = sl_eval(big_complex(om.re, 0, BITS))
        with mp.workprec(BITS + 16):
            assert abs(p.s.to_mpc() - 1) < mpf(2) ** -(BITS - 8)

    def test_periodicity_both_generators(self, rng):
        om = lemniscate_constant(BITS)
        with mp.workprec(BITS + 16):
            omv = om.re
            for gen in (mpc(omv, omv), mpc(omv, -omv)):
                for _ in range(20):
                    z = rand_point(rng)
                    base = sl_eval(z).s.to_mpc()
                    shifted = sl_eval(
                        big_complex(z.re + gen.real, z.im + gen.imag, BITS)
                    ).s.to_mpc()
                    assert abs(base - shifted) < mpf(2) ** -200

    def test_raw_lattice_structure(self, rng):
        # sl_eval owes its (1+i)*omega periodicity to argument reduction; the
        # unreduced function has true period 2(1+i)*omega, antiperiod 2*omega,
        # and picks up the quasi-period transform s -> -i/s across (1+i)*omega.
        om = lemniscate_constant(BITS)
        with mp.workprec(BITS + 32):
            omv = om.re
            for _ in range(10):
                z = mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                s = _sl_raw(z, BITS)[0]
                true_period = _sl_raw(z + 2 * mpc(omv, omv), BITS)[0]
                assert abs(true_period - s) < mpf(2) ** -200
                anti = _sl_raw(z + 2 * omv, BITS)[0]
                assert abs(anti + s) < mpf(2) ** -200
                quasi = _sl_raw(z + mpc(omv, omv), BITS)[0]
                assert abs(quasi * s + mpc(0, 1)) < mpf(2) ** -200

    def test_i_scaling_and_oddness(self, rng):
        with mp.workprec(BITS + 16):
            for _ in range(30):
                z = rand_point(rng)
                s = sl_eval(z).s.to_mpc()
                s_rot = sl_eval(big_complex(-z.im, z.re, BITS)).s.to_mpc()
                s_neg = sl_eval(big_complex(-z.re, -z.im, BITS)).s.to_mpc()
                assert abs(s_rot - mpc(0, 1) * s) < mpf(2) ** -200
                assert abs(s_neg + s) < mpf(2) ** -200

    def test_pair_identity(self, rng):
        with mp.workprec(BITS + 16):
            for _ in range(30):
                p = sl_eval(rand_point(rng, scale=0.6))
                assert pair_defect(p) < mpf(2) ** -(BITS - 32)


class TestSlPairAdd:
    def test_neutral(self, rng):
        neutral = sl_eval(big_complex(0, 0, BITS))
        with mp.workprec(BITS + 16):
            for _ in range(10):
                p = sl_eval(rand_point(rng))
                q = sl_pair_add(p, neutral)
                assert abs(q.s.to_mpc() - p.s.to_mpc()) < mpf(2) ** -200

    def test_doubling_formula(self, rng):
        with mp.workprec(BITS + 16):
            for _ in range(20):
                p = sl_eval(rand_point(rng))
                s, c = p.s.to_mpc(), p.c.to_mpc()
                doubled = sl_pair_add(p, p)
                assert abs(doubled.s.to_mpc() - 2 * s * c / (1 + s**4)) < mpf(2) ** -200

    def test_addition_matches_direct_eval(self, rng):
        with mp.workprec(BITS + 16):
            for _ in range(25):
                u, v = rand_point(rng), rand_point(rng)
                lhs = sl_pair_add(sl_eval(u), sl_eval(v))
                direct = sl_eval(u + v)
                assert abs(lhs.s.to_mpc() - direct.s.to_mpc()) < mpf(2) ** -180
                assert abs(lhs.c.to_mpc() - direct.c.to_mpc()) < mpf(2) ** -180

    def test_c_component_vs_finite_difference(self, rng):
        h = mpf(2) ** -24
        with mp.workprec(BITS + 16):
            for _ in range(10):
                z = rand_point(rng)
                c = sl_eval(z).c.to_mpc()
                fwd = sl_eval(big_complex(z.re + h, z.im, BITS)).s.to_mpc()
                bwd = sl_eval(big_complex(z.re - h, z.im, BITS)).s.to_mpc()
                approx = (fwd - bwd) / (2 * h)
                assert abs(approx - c) / abs(c) < mpf(10) ** -10


class TestFixedPointKernel:
    @pytest.mark.parametrize("bits", [256, 512, 1024])
    def test_sl_raw_matches_mpmath_reference(self, bits):
        # Points a*2(1+i)omega + b*2(1-i)omega of the reduced cell of the true
        # period lattice, half of them near its boundary (four halvings) and
        # some one period out (five), kept off the poles by |sl| <= 16.
        rng = random.Random(8 + bits)
        halvings = set()
        with mp.workprec(bits + 64):
            om = _omega(bits + 64)
            g1, g2 = 2 * mpc(om, om), 2 * mpc(om, -om)
            checked = 0
            while checked < 24:
                a, b = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
                if checked % 2:
                    a = rng.choice((-1, 1)) * rng.uniform(0.45, 0.5)
                if checked % 6 == 5:
                    a += 1
                z = a * g1 + b * g2
                s_ref, c_ref, h = _sl_mpmath_reference(z, bits)
                if abs(s_ref) > 16:
                    continue
                s, c = _sl_raw(z, bits)
                assert abs(s - s_ref) < mpf(2) ** -bits
                assert abs(c - c_ref) < mpf(2) ** -bits
                halvings.add(h)
                checked += 1
        assert {4, 5} <= halvings

    @pytest.mark.parametrize("b", ["-3", "-3-4i", "13+10i", "-19"])
    def test_torsion_values_match_mpmath_reference(self, b):
        ring = residue_ring(gi(b))
        beta = ring.modulus  # the primary associate, as torsion_values uses
        vals = torsion_values(gi(b), BITS)
        with mp.workprec(BITS + GUARD):
            om = _omega(BITS + GUARD)
            s_gen = mpc(om, om) / mpc(beta.re, beta.im)
            for orbit in _unit_orbits(ring):
                lift = _even_lift(orbit[0], beta)
                z = _reduce_mod_true_lattice_reference(s_gen * mpc(lift.re, lift.im), BITS)
                want = _sl_mpmath_reference(z, BITS)[0]
                for lam in orbit:
                    assert abs(vals[lam].to_mpc() - want) < mpf(2) ** -BITS
                    want *= mpc(0, 1)
        assert vals[gi("0")].to_mpc() == 0

    def test_addition_law_denominator_floor(self):
        # sl(u)^4 = -1 at u = (1+i)*omega/2, so doubling u meets the pole of
        # the addition law at (1+i)*omega.
        om = lemniscate_constant(BITS)
        with mp.workprec(BITS + GUARD):
            half_pole = big_complex(om.re / 2, om.re / 2, BITS)
        p = sl_eval(half_pole)
        with pytest.raises(PrecisionLoss):
            sl_pair_add(p, p)

    def test_pole_floor_on_ints(self):
        # At 32 bits the floor 2^-(bits - GUARD) is 1: wider than the distance
        # omega/sqrt(2) from (1+i)*omega/2 to the pole (1+i)*omega, narrower
        # than the distance omega*sqrt(2) from 0 to every pole.
        with mp.workprec(64 + GUARD):
            om = lemniscate_constant(64).re
            half_pole = big_complex(om / 2, om / 2, 64)
        with pytest.raises(PoleProximity):
            sl_eval(half_pole, precision_bits=32)
        assert sl_eval(big_complex(0, 0, 64), precision_bits=32).s.to_mpc() == 0
        # At 256 bits (1+i)*omega reduces to 0 and omega to itself.
        om = lemniscate_constant(BITS).re
        assert abs(sl_eval(big_complex(om, om, BITS)).s.to_mpc()) < mpf(2) ** -200
        sl_eval(big_complex(om, 0, BITS))

    def test_check_distinct_floor(self):
        F, bits = 300, 256
        floor = 1 << (F - bits // 2)
        _check_distinct([(0, 0), (floor, 0), (0, floor)], F, bits)
        with pytest.raises(PrecisionLoss):
            _check_distinct([(5, 7), (0, 0), (5 + floor - 1, 7)], F, bits)


TABLE_BETAS = ["-3", "9", "-11", "13", "17", "-19", "21", "33", "3-6i", "11-2i", "13+10i"]
RATIONAL_TABLE_BETAS = [b for b in TABLE_BETAS if "i" not in b]


def _series_reference(beta, r, bits):
    """(sl r*w, sl' r*w), w = (1+i)*omega/beta, by one series evaluation at
    bits + 96, from the omega the working precision bits carries; its own
    error is far below 2^-(bits + GUARD) even near a pole."""
    kbits = bits + 96
    om = _fx(_omega(bits + GUARD), _frac_bits(kbits))
    g = r * GaussInt(1, 1) * beta.conjugate()
    n = beta.norm()
    return _sl_fx((om * g.re // n, om * g.im // n), kbits)


def _within_budget(v, want, bits):
    """True when the fixed-point pair v at bits lies within 2^-(bits + GUARD)
    of the pair want at bits + 96."""
    shift = _frac_bits(bits + 96) - _frac_bits(bits)
    dr, di = (v[0] << shift) - want[0], (v[1] << shift) - want[1]
    return dr * dr + di * di < (1 << (_frac_bits(bits + 96) - bits - GUARD)) ** 2


class TestAdditionTable:
    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize("b", TABLE_BETAS)
    def test_orbit_values_match_series(self, b, bits):
        ring = residue_ring(gi(b))
        beta = ring.modulus
        plan, _ = _orbit_plan(ring, ONE)
        for (orbit, parts, _), (same_orbit, _, v) in zip(
            plan, lemniscate._orbit_values(ring, bits)
        ):
            assert same_orbit == orbit
            r = gauss_divmod(_even_lift(orbit[0], beta), 2 * beta)[1]
            assert sum(parts, GaussInt(0, 0)) == r
            assert _within_budget(v, _series_reference(beta, r, bits)[0], bits)

    @pytest.mark.parametrize(
        "b, gc", [("-3", "1+i"), ("13", "2+i"), ("3-6i", "2"), ("13+10i", "-1+3i"), ("-19", "5i")]
    )
    def test_generator_class_values_match_series(self, b, gc):
        # torsion_values(beta, generator_class=m) is sl at the even lift of
        # each orbit's first residue times m, reduced mod 2 beta.
        ring = residue_ring(gi(b))
        beta = ring.modulus
        mult = gi(gc)
        vals = torsion_values(gi(b), BITS, generator_class=mult)
        F = _frac_bits(BITS)
        for orbit in _unit_orbits(ring):
            r = gauss_divmod(_even_lift(orbit[0], beta) * mult, 2 * beta)[1]
            want = _series_reference(beta, r, BITS)[0]
            for lam in orbit:
                got = (_fx(vals[lam].re, F), _fx(vals[lam].im, F))
                assert _within_budget(got, want, BITS)
                want = (-want[1], want[0])

    @pytest.mark.parametrize("b", TABLE_BETAS)
    def test_pole_rule(self, b):
        ring = residue_ring(gi(b))
        beta = ring.modulus
        plan, K = _orbit_plan(ring, ONE)
        assert not any(_is_pole(GaussInt(k, 0), beta) for k in range(K + 1))
        two_additions = 0
        for orbit, parts, _ in plan:
            r = gauss_divmod(_even_lift(orbit[0], beta), 2 * beta)[1]
            pole = _is_pole(GaussInt(r.re, 0), beta) or _is_pole(GaussInt(0, r.im), beta)
            assert len(parts) == (2 if pole else 1)
            two_additions += len(parts) == 2
            for part in parts:
                assert max(abs(part.re), abs(part.im)) <= K
        if b in RATIONAL_TABLE_BETAS:
            assert two_additions > 0
            assert K == abs(beta.re) - 1
        else:
            assert two_additions == 0

    def test_is_pole(self):
        beta = gi("-3")
        assert [k for k in range(-9, 10) if _is_pole(GaussInt(k, 0), beta)] == [-9, -3, 3, 9]
        assert _is_pole(gi("3+6i"), beta) and not _is_pole(gi("3+3i"), beta)
        assert not _is_pole(gi("0"), beta)
        assert _is_pole(gi("-1+2i"), gi("-1+2i")) and not _is_pole(gi("-1-2i"), gi("-1+2i"))

    def test_orbit_plan_built_once_per_beta(self):
        _orbit_plan.cache_clear()
        lemnatomic_numeric(gi("17"), 64)  # rounds at 64, 128 and 256 bits
        info = _orbit_plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("b", ["-3", "-1+2i", "13", "3-6i"])
    def test_corrupt_table_entry_is_rejected(self, b, monkeypatch):
        # One entry corrupted at every precision, after the table is built.
        # An entry an invertible orbit reads, nudged by 2^-20, leaves no round
        # to accept, so the route ends in RoundingUnstable; no corruption
        # ever yields another Lambda (negating an entry can leave the orbit's
        # value set, and so Lambda, unchanged).
        beta = gi(b)
        want = lemnatomic_exact(beta).coefficients
        plan, K = _orbit_plan(residue_ring(beta), ONE)
        read = {abs(x) for _, parts, inv in plan if inv for p in parts for x in (p.re, p.im)}
        real = lemniscate._sl_table
        monkeypatch.setattr(lemniscate, "PRECISION_CEILING", 1024)
        for k in range(1, K + 1):
            for corrupt in ("nudge", "swap", "negate"):

                def corrupted(w, K_, tbits, bits, k=k, corrupt=corrupt):
                    T = real(w, K_, tbits, bits)
                    (sr, si), c = T[k]
                    if corrupt == "nudge":
                        T[k] = ((sr + (1 << (_frac_bits(tbits) - 20)), si), c)
                    elif corrupt == "swap":
                        T[k] = T[k - 1]
                    else:
                        T[k] = ((-sr, -si), c)
                    return T

                monkeypatch.setattr(lemniscate, "_sl_table", corrupted)
                try:
                    poly, _ = lemnatomic_numeric(beta, BITS)
                except RoundingUnstable:
                    continue
                assert poly == want
                assert not (corrupt == "nudge" and k in read)

    @pytest.mark.parametrize("b", ["-3", "13", "13+10i"])
    def test_corrupt_first_round_escalates(self, b, monkeypatch):
        beta = gi(b)
        K = _orbit_plan(residue_ring(beta), ONE)[1]
        real = lemniscate._sl_table

        def corrupted(w, K_, tbits, bits):
            T = real(w, K_, tbits, bits)
            if bits == BITS:
                (sr, si), c = T[K_]
                T[K_] = ((sr, si + (1 << (_frac_bits(tbits) - 20))), c)
            return T

        monkeypatch.setattr(lemniscate, "_sl_table", corrupted)
        poly, report = lemnatomic_numeric(beta, BITS)
        assert poly == lemnatomic_exact(beta).coefficients
        assert report.escalations == 1
        assert (report.precision_bits, report.stability_bits) == (2 * BITS, 4 * BITS)
        assert K >= 2


class TestTorsion:
    def test_count_and_zero(self):
        vals = torsion_values(gi("-3"), BITS)
        assert len(vals) == 9
        assert vals[gi("0")].to_mpc() == 0

    def test_pairwise_distinct(self):
        vals = torsion_values(gi("-3"), BITS)
        with mp.workprec(BITS + 24):
            gaps = [
                abs(a.to_mpc() - b.to_mpc())
                for a, b in itertools.combinations(vals.values(), 2)
            ]
        assert min(gaps) > mpf(2) ** -100

    def test_i_lambda_scaling(self):
        ring = residue_ring(gi("-3"))
        vals = torsion_values(gi("-3"), BITS)
        with mp.workprec(BITS + 24):
            for lam, v in vals.items():
                rotated = vals[ring.canonical_rep(lam * gi("i"))]
                assert abs(rotated.to_mpc() - mpc(0, 1) * v.to_mpc()) < mpf(2) ** -200

    def test_points_satisfy_lattice_relation(self):
        om = lemniscate_constant(BITS)
        pts = torsion_points(gi("-3"), BITS)
        assert len(pts) == 9
        with mp.workprec(BITS + 24):
            period = mpc(om.re, om.re)
            for pt in pts:
                scaled = mpc(-3, 0) * pt.z.to_mpc() / period
                assert abs(scaled - mp.nint(scaled.real) - mpc(0, 1) * mp.nint(scaled.imag)) < mpf(
                    2
                ) ** -200

    def test_generator_class_permutes_values(self):
        base = torsion_values(gi("-3"), BITS)
        moved = torsion_values(gi("-3"), BITS, generator_class=gi("1+i"))
        with mp.workprec(BITS + 24):
            key = lambda z: (z.real, z.imag)
            a = sorted((v.to_mpc() for v in base.values()), key=key)
            b = sorted((v.to_mpc() for v in moved.values()), key=key)
            assert all(abs(x - y) < mpf(2) ** -200 for x, y in zip(a, b))

    def test_noninvertible_generator_rejected(self):
        with pytest.raises(InputError):
            torsion_values(gi("-3"), BITS, generator_class=gi("3"))


class TestLemnatomicNumeric:
    def test_quartic_shape(self):
        poly, report = lemnatomic_numeric(gi("-1+2i"), BITS)
        assert poly.degree() == 4
        assert poly.is_monic()
        assert poly[1].is_zero() and poly[2].is_zero() and poly[3].is_zero()
        assert poly[0] == gi("-1+2i")
        assert report.precision_bits >= BITS

    def test_degree_eight(self):
        poly, _ = lemnatomic_numeric(gi("-3"), BITS)
        assert poly.degree() == phi_norm(gi("-3")) == 8

    def test_low_precision_still_converges(self):
        poly, report = lemnatomic_numeric(gi("-1+2i"), 64)
        assert poly[0] == gi("-1+2i")
        assert report.max_rounding_error < 2.0**-30
        assert report.stability_bits > report.precision_bits

    def test_escalation_computes_each_precision_once(self, monkeypatch):
        seen = []
        real = lemniscate._numeric_poly_at

        def counted(beta, ring, bits):
            seen.append(bits)
            return real(beta, ring, bits)

        monkeypatch.setattr(lemniscate, "_numeric_poly_at", counted)
        poly, report = lemnatomic_numeric(gi("17"), 64)
        assert len(seen) == len(set(seen))
        assert seen == [64, 128, 256]
        assert report.escalations == 1
        assert (report.precision_bits, report.stability_bits) == (128, 256)
        assert poly == lemnatomic_exact(gi("17")).coefficients

    def test_precision_failure_is_not_recomputed(self, monkeypatch):
        seen = []
        real = lemniscate._numeric_poly_at

        def failing_at_128(beta, ring, bits):
            seen.append(bits)
            if bits == 128:
                raise PrecisionLoss("injected")
            return real(beta, ring, bits)

        monkeypatch.setattr(lemniscate, "_numeric_poly_at", failing_at_128)
        poly, report = lemnatomic_numeric(gi("-1+2i"), 64)
        assert seen == [64, 128, 256, 512]
        assert (report.precision_bits, report.escalations) == (256, 2)
        assert poly[0] == gi("-1+2i")

    def test_top_rung_matches_exact_without_escalation(self):
        poly, report = lemnatomic_numeric(gi("-19"), BITS)
        assert poly.degree() == 360
        assert poly == lemnatomic_exact(gi("-19")).coefficients
        assert report.precision_bits == 256
        assert report.escalations == 0

    @pytest.mark.parametrize("b", sorted(ESCALATING))
    def test_rejects_256_and_accepts_512(self, b):
        beta = gi(b)
        poly, report = lemnatomic_numeric(beta, BITS)
        assert (report.precision_bits, report.escalations, report.stability_bits) == (512, 1, 1024)
        assert record_checksum(beta, poly) == ESCALATING[b]

    @pytest.mark.slow
    def test_numeric_37_matches_exact(self):
        poly, report = lemnatomic_numeric(gi("37"), BITS)
        assert poly.coeffs == lemnatomic_exact(gi("37")).coefficients.coeffs
        assert report.precision_bits == 512

    @pytest.mark.slow
    def test_numeric_minus_43_accepted_at_1024(self):
        beta = gi("-43")
        poly, report = lemnatomic_numeric(beta, BITS)
        assert (report.precision_bits, report.stability_bits) == (1024, 2048)
        assert report.escalations == 2
        record = LemnatomicRecord.build(beta, poly, "numeric", report.precision_bits)
        assert record.degree == 1848 and record.coefficients[0] == beta

    def test_non_primary_input_normalized(self):
        via_three, _ = lemnatomic_numeric(gi("3"), BITS)
        via_primary, _ = lemnatomic_numeric(gi("-3"), BITS)
        assert via_three == via_primary

    def test_unit_and_even_rejected(self):
        with pytest.raises(InputError):
            lemnatomic_numeric(gi("1"), BITS)
        with pytest.raises(InputError):
            lemnatomic_numeric(gi("1+i"), BITS)

