"""Verification engines over the residue-field reductions of lemnatomic
polynomials: complete-splitting scans, semi-split scans, separability sweeps,
Frobenius-orbit checks, irreducibility-criterion evidence, density reports,
and the congruence-obstruction witness search.

All scans walk odd primary Gaussian primes in (norm, re, im) order, so every
report is deterministic for fixed inputs.  One memoised scan, _scan, serves
every report: per prime it records whether pi divides the modulus (disc(h),
or beta for the separability sweep), read as a zero image in Z[i]/(pi), and
otherwise a status byte for h mod pi.  The splitting and the root reports
(splitting primes, density, witness search, semi-split primes, criterion
evidence) read one scan per (h, bound): gfq.root_status writes h mod pi as
X^k * g(X^e), e = gcd(d, q - 1) for d the gcd of its exponents, computes
Y^((q-1)/e) mod g once per prime and reads both "splits completely" and "has
a root" from it.  Every lemnatomic polynomial lies in Z[i][X^4], so g has at
most a quarter of its degree.  The separability sweep keeps its own scan,
modulo beta, with the squarefree test, which runs on the same g.  X^q mod h
on h itself is left to the single-prime predicates splits_completely and
has_root and to factor_degrees.

Class computations default to primary normalization (classes of primes
taken through their primary associates); raw mode, which reduces the
first-quadrant associate exactly as written, is exposed for comparison and
is demonstrably the reading under which the irreducibility criterion's
worked counterexample breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError
from .exact import lemnatomic_exact
from .gaussint import (
    GaussInt,
    GaussPrime,
    _check_beta,
    _odd_prime_walk,
    _walk_prime,
    as_gauss,
    canonical_associate,
    divides,
    factor,
    format_gauss,
    odd_part,
    primes_up_to_norm,
)
from .gfq import ROOT, SPLITS, factor_degrees, reduce_poly, residue_field, root_status, squarefree

# The single-prime predicates that the SPLITS and ROOT statuses stand for,
# bound here as well (perfbench's tracer wraps classfield's own reference).
from .gfq import has_root, splits_completely  # noqa: F401
from .residue import class_of, residue_ring, subgroup_generated, unit_group
from .zipoly import PolyZi, discriminant, to_json_dict

__all__ = [
    "SplittingReport",
    "Prop1Report",
    "Prop2Report",
    "TheoremCandidate",
    "TheoremReport",
    "DensityReport",
    "splitting_primes",
    "semisplit_primes",
    "verify_prop1",
    "frobenius_orbit_check",
    "prop2_evidence",
    "theorem_search",
    "density_report",
]


# -- report types --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SplittingReport:
    """Primes below the bound at which the polynomial splits completely."""

    poly: PolyZi
    bound: int
    primes: tuple
    skipped: tuple  # primes dividing the discriminant, excluded from the scan

    def to_json_dict(self) -> dict:
        return {
            "poly": to_json_dict(self.poly),
            "bound": self.bound,
            "primes": [format_gauss(pi.value) for pi in self.primes],
            "skipped": [format_gauss(pi.value) for pi in self.skipped],
            "count": len(self.primes),
        }


@dataclass(frozen=True, slots=True)
class Prop1Report:
    """Separability sweep: the reduction mod every scanned prime must be
    squarefree; failures list the counterexamples (expected empty)."""

    beta: GaussInt
    bound: int
    checked: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "beta": format_gauss(self.beta),
            "bound": self.bound,
            "checked": self.checked,
            "failures": [format_gauss(pi.value) for pi in self.failures],
            "passed": self.passed,
        }


@dataclass(frozen=True, slots=True)
class Prop2Report:
    """Evidence for the irreducibility criterion: classes of semi-split primes
    and whether they generate the full unit group mod beta.

    Bound-dependent: a class missing at this bound may appear at a larger
    one, so criterion_satisfied = True is conclusive, False is not.
    """

    poly: PolyZi
    beta: GaussInt
    bound: int
    normalization: str
    classes: tuple
    subgroup_order: int
    group_order: int
    criterion_satisfied: bool
    skipped: tuple  # semi-split test skipped: primes dividing disc(poly)

    def to_json_dict(self) -> dict:
        return {
            "poly": to_json_dict(self.poly),
            "beta": format_gauss(self.beta),
            "bound": self.bound,
            "normalization": self.normalization,
            "classes": [format_gauss(c) for c in self.classes],
            "subgroup_order": self.subgroup_order,
            "group_order": self.group_order,
            "criterion_satisfied": self.criterion_satisfied,
            "skipped": [format_gauss(pi.value) for pi in self.skipped],
        }


@dataclass(frozen=True, slots=True)
class TheoremCandidate:
    beta: GaussInt
    group_order: int
    subgroup_order: int
    witness: bool

    def to_json_dict(self) -> dict:
        return {
            "beta": format_gauss(self.beta),
            "group_order": self.group_order,
            "subgroup_order": self.subgroup_order,
            "witness": self.witness,
        }


@dataclass(frozen=True, slots=True)
class TheoremReport:
    """Witness search for the congruence obstruction: candidate moduli beta
    built from the odd prime divisors of the discriminant, each marked as a
    witness when the classes of the splitting primes generate a proper
    subgroup of the unit group mod beta."""

    poly: PolyZi
    disc: GaussInt
    bound: int
    normalization: str
    candidates: tuple
    notes: str

    @property
    def witnesses(self) -> tuple:
        return tuple(c for c in self.candidates if c.witness)

    def to_json_dict(self) -> dict:
        return {
            "poly": to_json_dict(self.poly),
            "disc": format_gauss(self.disc),
            "bound": self.bound,
            "normalization": self.normalization,
            "candidates": [c.to_json_dict() for c in self.candidates],
            "witnesses": [format_gauss(c.beta) for c in self.witnesses],
            "notes": self.notes,
        }


@dataclass(frozen=True, slots=True)
class DensityReport:
    """Empirical splitting density against the heuristic 1/degree."""

    poly: PolyZi
    bound: int
    count_p: int
    count_all_odd: int
    ratio: float
    expected: float

    def to_json_dict(self) -> dict:
        return {
            "poly": to_json_dict(self.poly),
            "bound": self.bound,
            "count_P": self.count_p,
            "count_all_odd": self.count_all_odd,
            "ratio": self.ratio,
            "expected": self.expected,
        }


# -- scans ---------------------------------------------------------------------


@lru_cache(maxsize=8)
def _check_scan_poly(h: PolyZi) -> GaussInt:
    """disc(h) after validating h; memoised, since every report on h needs it."""
    if not h.is_monic():
        raise InputError("scan polynomial must be monic")
    if h.degree() < 1:
        raise InputError("scan polynomial must have degree at least 1")
    disc = discriminant(h)
    if disc.is_zero():
        raise InputError("scan polynomial has zero discriminant (repeated roots)")
    return disc


# A status byte per scanned prime: _SKIP when pi divides the scan's modulus,
# else the classifier's value at h mod pi: root_status (NO_ROOT < ROOT <
# SPLITS) for the splitting and root reports, squarefree's bool for the
# separability sweep.
_SKIP = 0xFF
_ROOTS = (ROOT, SPLITS)


@lru_cache(maxsize=16)
def _scan(h: PolyZi, bound: int, modulus: GaussInt, classify) -> bytes:
    """One status byte per odd primary prime of norm <= bound, in walk order.

    pi | modulus is read off the residue field: the image of modulus in
    Z[i]/(pi) is zero.  Memoised on (h, bound, modulus, classify), so reports
    that share a scan run it once; bytes keep the memo small.
    """
    walk = _odd_prime_walk(bound)
    out = bytearray()
    for k in range(len(walk) // 3):
        field = residue_field(_walk_prime(walk, k))
        if field.reduce_gauss(modulus) == field.zero():
            out.append(_SKIP)
        else:
            out.append(classify(reduce_poly(h, field)))
    return bytes(out)


def _root_scan(h: PolyZi, bound: int) -> bytes:
    """root_status of h at every prime not dividing disc(h): the one scan,
    one modular power per prime, behind every splitting and root report on h."""
    return _scan(h, bound, _check_scan_poly(h), root_status)


def _primes(bound: int, status: bytes, wanted: tuple) -> list:
    """The scanned primes whose status byte is in wanted, in walk order."""
    return [pi for pi, s in zip(primes_up_to_norm(bound), status) if s in wanted]


def splitting_primes(h: PolyZi, bound: int) -> SplittingReport:
    """Scan odd primary primes with norm <= bound; keep those at which h
    splits completely into distinct linear factors.  Primes dividing disc(h)
    are skipped (the squarefree test would exclude them anyway) and reported
    separately."""
    status = _root_scan(h, bound)
    return SplittingReport(
        poly=h,
        bound=bound,
        primes=tuple(_primes(bound, status, (SPLITS,))),
        skipped=tuple(_primes(bound, status, (_SKIP,))),
    )


def semisplit_primes(g: PolyZi, bound: int) -> list:
    """Odd primary primes with norm <= bound, not dividing disc(g), at which
    g has a root in the residue field (a degree-one prime of the field g
    defines; g is trusted to be irreducible, not verified)."""
    return _primes(bound, _root_scan(g, bound), _ROOTS)


def verify_prop1(beta, bound: int) -> Prop1Report:
    """Separability sweep: reduce the lemnatomic polynomial of beta modulo
    every odd primary prime pi with pi not dividing beta and N(pi) <= bound,
    and check squarefreeness.  The theory predicts zero failures."""
    rec = lemnatomic_exact(beta)
    status = _scan(rec.coefficients, bound, rec.beta, squarefree)
    return Prop1Report(
        beta=rec.beta,
        bound=bound,
        checked=len(status) - status.count(_SKIP),
        failures=tuple(_primes(bound, status, (False,))),  # not squarefree
    )


def frobenius_orbit_check(beta, pi) -> bool:
    """True when every irreducible factor of the lemnatomic polynomial of
    beta mod pi has degree equal to the multiplicative order of the primary
    class of pi in the unit group mod beta."""
    pi_val = pi.value if isinstance(pi, GaussPrime) else as_gauss(pi)
    if not pi_val.is_odd():
        raise InputError("pi must be odd")
    rec = lemnatomic_exact(beta)
    if divides(pi_val, rec.beta):
        raise InputError(f"pi = {format_gauss(pi_val)} divides beta = {format_gauss(rec.beta)}")
    ring = residue_ring(rec.beta)
    group = unit_group(ring)
    order = group.element_order(class_of(pi_val, ring, "primary"))
    try:
        degrees = factor_degrees(reduce_poly(rec.coefficients, pi))
    except InputError:
        return False  # reduction not squarefree: the predicted orbit structure fails
    return set(degrees) == {order}


def _prime_class(pi: GaussPrime, ring, normalization: str) -> GaussInt:
    """Class of a scanned prime: the primary value in primary mode, the
    first-quadrant associate reduced as written in raw mode."""
    if normalization == "primary":
        return class_of(pi.value, ring, "primary")
    if normalization == "raw":
        return class_of(canonical_associate(pi.value), ring, "raw")
    raise InputError(f"unknown normalization {normalization!r}")


def prop2_evidence(g: PolyZi, beta, bound: int, normalization: str = "primary") -> Prop2Report:
    """Collect the classes mod beta of semi-split primes of the field g
    defines and test whether they generate the full unit group; if they do,
    the irreducibility criterion's hypothesis is met at this bound."""
    if normalization not in ("primary", "raw"):
        raise InputError(f"unknown normalization {normalization!r}")
    beta = _check_beta(beta)
    ring = residue_ring(beta)
    group = unit_group(ring)
    status = _root_scan(g, bound)
    hits = [pi for pi in _primes(bound, status, _ROOTS) if not divides(pi.value, beta)]
    classes = sorted(
        {_prime_class(pi, ring, normalization) for pi in hits},
        key=lambda c: (c.re, c.im),
    )
    sub = subgroup_generated(group, classes)
    return Prop2Report(
        poly=g,
        beta=beta,
        bound=bound,
        normalization=normalization,
        classes=tuple(classes),
        subgroup_order=len(sub),
        group_order=group.order,
        criterion_satisfied=len(sub) == group.order,
        skipped=tuple(_primes(bound, status, (_SKIP,))),
    )


def theorem_search(
    h: PolyZi,
    bound: int,
    exponent_bound: int = 2,
    norm_cap: int = 500,
    normalization: str = "primary",
) -> TheoremReport:
    """Search for moduli beta witnessing the congruence obstruction: beta
    ranges over primary products of the odd prime divisors of disc(h) with
    exponents up to exponent_bound and N(beta) <= norm_cap; beta is a witness
    when the classes of the splitting primes of h below the bound generate a
    proper subgroup of the unit group mod beta.

    A proper-subgroup verdict depends on the scan bound (more primes can only
    grow the subgroup); a full-group verdict is final.
    """
    if normalization not in ("primary", "raw"):
        raise InputError(f"unknown normalization {normalization!r}")
    if exponent_bound < 1:
        raise InputError("exponent_bound must be at least 1")
    disc = _check_scan_poly(h)
    notes = []
    if disc.is_odd():
        base = disc
    else:
        base = odd_part(disc)
        if base.is_unit():
            raise InputError(
                "discriminant is even with no odd prime factor; "
                "the obstruction search needs an odd discriminant part"
            )
        notes.append("discriminant is even; candidate moduli drawn from its odd part")
    candidates: list[GaussInt] = []
    if not base.is_unit():
        _, facs = factor(base)
        exps = [(prime.value, exp) for prime, exp in facs]
        grids = [GaussInt(1, 0)]
        for prime, _ in exps:
            # norms only grow, so nothing past norm_cap is raised or multiplied further
            current = list(grids)
            power = prime
            for _ in range(exponent_bound):
                if power.norm() > norm_cap:
                    break
                grids.extend(g * power for g in current if g.norm() * power.norm() <= norm_cap)
                power = power * prime
        candidates = sorted(
            {g for g in grids if not g.is_unit()},
            key=lambda g: (g.norm(), g.re, g.im),
        )
    splitting = _primes(bound, _root_scan(h, bound), (SPLITS,))
    rows: list[TheoremCandidate] = []
    for beta in candidates:
        ring = residue_ring(beta)
        group = unit_group(ring)
        classes = {
            _prime_class(pi, ring, normalization)
            for pi in splitting
            if not divides(pi.value, beta)
        }
        sub = subgroup_generated(group, classes)
        rows.append(
            TheoremCandidate(
                beta=beta,
                group_order=group.order,
                subgroup_order=len(sub),
                witness=len(sub) < group.order,
            )
        )
    notes.append(
        f"witness verdicts are relative to the splitting scan bound {bound}; "
        "proper subgroups may still grow, full groups are final"
    )
    return TheoremReport(
        poly=h,
        disc=disc,
        bound=bound,
        normalization=normalization,
        candidates=tuple(rows),
        notes="; ".join(notes),
    )


def density_report(h: PolyZi, bound: int) -> DensityReport:
    """Empirical density of splitting primes among all odd primary primes up
    to the bound, with the heuristic value 1/deg(h) attached (not enforced)."""
    status = _root_scan(h, bound)
    count_p, count_all = status.count(SPLITS), len(status)
    ratio = count_p / count_all if count_all else 0.0
    return DensityReport(
        poly=h,
        bound=bound,
        count_p=count_p,
        count_all_odd=count_all,
        ratio=ratio,
        expected=float(Fraction(1, h.degree())),
    )
