"""Verification engines over the residue-field reductions of lemnatomic
polynomials: complete-splitting scans, semi-split scans, separability sweeps,
Frobenius-orbit checks, irreducibility-criterion evidence, density reports,
and the congruence-obstruction witness search.

All scans walk odd primary Gaussian primes in (norm, re, im) order, so every
report is deterministic for fixed inputs, and each keeps one status byte per
prime: _SKIP where pi divides the scan's modulus, read as a zero image in
Z[i]/(pi), else the test's value at h mod pi.  One memoised scan, _scan,
serves the splitting and the root reports (splitting primes, density,
witness search, semi-split primes, criterion evidence): its modulus is
disc(h), and gfq.root_status writes h mod pi as X^k * g(X^e), e = gcd(d,
q - 1) for d the gcd of its exponents, computes Y^((q-1)/e) mod g once per
prime and reads both "splits completely" and "has a root" from it.  Every
lemnatomic polynomial lies in Z[i][X^4], so g has at most a quarter of its
degree.  The separability sweep, _sweep, has modulus beta and reduces
nothing: for monic h, h mod pi is squarefree exactly when pi does not divide
disc(h), so it reads each prime's status off two residues, of beta and of
disc(h), from the same disc(h) memo as the root reports.  X^q mod h on h
itself is left to the single-prime predicates splits_completely and
has_root and to factor_degrees.

A split prime a + bi of norm p (all but 21 of the 3243 primes at norm
3e4) costs the root scan ints alone, and only the work that depends on p:
the image of i is read off the prime walk, which stores it beside the
prime; h's nonzero terms are listed once per scan, and per prime only
those are reduced, a term that vanishes mod p dropped; gfq's int-level
entry deflates what is left and takes one packed square-and-multiply.
The conjugate prime a - bi, next in the walk, maps i to -image; where that
leaves h's reduced terms unchanged, as it does for every real h, it reuses
the status of a + bi, so a real h costs one power per rational prime.
An inert prime -p hands the same entry h's terms reduced to GaussInts mod
p, its residues in F_{p^2}, and builds no field object either.

Class computations default to primary normalization (classes of primes
taken through their primary associates); raw mode, which reduces the
first-quadrant associate exactly as written, is exposed for comparison and
is demonstrably the reading under which the irreducibility criterion's
worked counterexample breaks.  The class reports, theorem_search and
prop2_evidence, build no unit group: the group order is phi_norm(beta),
a scanned prime is primary already, so its class is its value reduced mod
beta and pi | beta is a lookup among beta's primary prime factors, and the
classes' subgroup is one residue._closure (see _class_subgroup).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .exact import lemnatomic_exact
from .gaussint import (
    GaussInt,
    GaussPrime,
    _check_beta,
    _odd_prime_walk,
    as_gauss,
    canonical_associate,
    divides,
    factor,
    format_gauss,
    odd_part,
    primes_up_to_norm,
)
from .gfq import (
    ROOT,
    SPLITS,
    _root_status,
    factor_degrees,
    reduce_poly,
    residue_field,
    squarefree,
)

# The single-prime predicates that the SPLITS and ROOT statuses stand for,
# bound here as well (perfbench's tracer wraps classfield's own reference).
from .gfq import has_root, splits_completely  # noqa: F401
from .residue import _closure, _order_of, class_of, phi_norm, residue_ring
from .zipoly import PolyZi, discriminant, to_json

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
        return {**to_json(self), "count": len(self.primes)}


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
        return {**to_json(self), "passed": self.passed}


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
        return to_json(self)


@dataclass(frozen=True, slots=True)
class TheoremCandidate:
    beta: GaussInt
    group_order: int
    subgroup_order: int
    witness: bool

    def to_json_dict(self) -> dict:
        return to_json(self)


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
        return {**to_json(self), "witnesses": to_json([c.beta for c in self.witnesses])}


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
        return {("count_P" if k == "count_p" else k): v for k, v in to_json(self).items()}


# -- scans ---------------------------------------------------------------------


@lru_cache(maxsize=8)
def _check_scan_poly(h: PolyZi) -> GaussInt:
    """disc(h) after validating h as monic and nonconstant; memoised, since
    every report on h needs it.  Zero when h has a repeated root: the root
    reports reject that (_root_disc), the separability sweep reads it as a
    failure at every prime."""
    if not h.is_monic():
        raise InputError("scan polynomial must be monic")
    if h.degree() < 1:
        raise InputError("scan polynomial must have degree at least 1")
    return discriminant(h)


def _root_disc(h: PolyZi) -> GaussInt:
    """disc(h) for the splitting and root reports, which need it nonzero."""
    disc = _check_scan_poly(h)
    if disc.is_zero():
        raise InputError("scan polynomial has zero discriminant (repeated roots)")
    return disc


# A status byte per scanned prime: _SKIP when pi divides the scan's modulus
# (disc(h) for the root scan, beta for the separability sweep), else
# root_status (NO_ROOT < ROOT < SPLITS) or squarefreeness (1 or 0) of h mod pi.
_SKIP = 0xFF
_ROOTS = (ROOT, SPLITS)


@lru_cache(maxsize=16)
def _scan(h: PolyZi, bound: int) -> bytes:
    """root_status of h mod pi for each odd primary prime pi of norm <= bound,
    in walk order, and _SKIP where pi divides disc(h).

    h is monic with a nonzero discriminant.  pi | disc(h) is read as a zero
    image of disc(h) in Z[i]/(pi).  A split prime a + bi (norm p) is worked
    on ints alone: i maps to the image the walk stores beside the prime, and
    only h's nonzero terms are reduced, once listed per scan; a term that
    vanishes mod p is dropped, and gfq._root_status deflates what is left.
    The two conjugate primes above p are adjacent in the walk, and a prime
    whose reduced terms equal those of the split prime worked just before
    it, of the same p, has the same h mod pi over the same F_p and reuses
    its status byte: a real h costs one power per rational prime p.
    An inert prime -p (norm p^2) reads pi | disc(h) as in _sweep and takes
    the same entry at field degree 2, on the terms reduced to GaussInts mod
    p.  Memoised on (h, bound), so the splitting and root reports on h share
    one scan; bytes keep the memo small.
    """
    disc = _root_disc(h)
    walk = _odd_prime_walk(bound)
    terms = [(j, c.re, c.im) for j, c in enumerate(h.coeffs) if not c.is_zero()]
    out = bytearray()
    last_p = last_terms = last = None  # the split prime last worked
    for a, b, p, i in zip(walk[::4], walk[1::4], walk[2::4], walk[3::4]):
        if b:
            if (disc.re + disc.im * i) % p:
                reduced = [(j, c) for j, x, y in terms if (c := (x + y * i) % p)]
                if p != last_p or reduced != last_terms:
                    last_p, last_terms, last = p, reduced, _root_status(p, reduced)
                out.append(last)
            else:
                out.append(_SKIP)
            continue
        if disc.re % a or disc.im % a:
            out.append(_root_status(-a, [(j, c) for j, x, y in terms if (c := GaussInt(x % -a, y % -a))], 2))
        else:
            out.append(_SKIP)
    return bytes(out)


def _sweep(h: PolyZi, bound: int, modulus: GaussInt) -> bytes:
    """Whether h mod pi is squarefree (1) or not (0) for each odd primary
    prime pi of norm <= bound, in walk order, and _SKIP where pi divides
    modulus.

    h is monic, so h mod pi keeps its degree and its discriminant is
    disc(h) mod pi, which vanishes exactly when h mod pi has a repeated
    root: h mod pi is squarefree iff pi does not divide disc(h).  Both
    divisibilities are read on ints, with the walk's image of i for a split
    prime a + bi, and as p | re and p | im for an inert prime -p.  No
    reduction of h runs.  A zero disc(h) fails every prime not skipped.
    """
    disc = _check_scan_poly(h)
    walk = _odd_prime_walk(bound)
    out = bytearray()
    for a, b, p, i in zip(walk[::4], walk[1::4], walk[2::4], walk[3::4]):
        if b:
            skip, fails = [not (z.re + z.im * i) % p for z in (modulus, disc)]
        else:
            skip, fails = [not (z.re % a or z.im % a) for z in (modulus, disc)]
        out.append(_SKIP if skip else not fails)
    return bytes(out)


def _primes(bound: int, status: bytes, wanted: tuple) -> list:
    """The scanned primes whose status byte is in wanted, in walk order."""
    return [pi for pi, s in zip(primes_up_to_norm(bound), status) if s in wanted]


def splitting_primes(h: PolyZi, bound: int) -> SplittingReport:
    """Scan odd primary primes with norm <= bound; keep those at which h
    splits completely into distinct linear factors.  Primes dividing disc(h)
    are skipped (the squarefree test would exclude them anyway) and reported
    separately."""
    status = _scan(h, bound)
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
    return _primes(bound, _scan(g, bound), _ROOTS)


def verify_prop1(beta, bound: int) -> Prop1Report:
    """Separability sweep: check that the lemnatomic polynomial of beta is
    squarefree modulo every odd primary prime pi with pi not dividing beta
    and N(pi) <= bound, read off disc(Lambda_beta) (see _sweep).  The theory
    predicts zero failures."""
    rec = lemnatomic_exact(beta)
    status = _sweep(rec.coefficients, bound, rec.beta)
    return Prop1Report(
        beta=rec.beta,
        bound=bound,
        checked=len(status) - status.count(_SKIP),
        failures=tuple(_primes(bound, status, (False,))),  # not squarefree
    )


def frobenius_orbit_check(beta, pi) -> bool:
    """True when every irreducible factor of the lemnatomic polynomial of
    beta mod pi has degree equal to the multiplicative order of the primary
    class of pi in the unit group mod beta, and False when the reduction is
    not squarefree.  InputError unless pi is an odd Gaussian prime not
    dividing beta."""
    pi_val = pi.value if isinstance(pi, GaussPrime) else as_gauss(pi)
    if not pi_val.is_odd():
        raise InputError("pi must be odd")
    field = residue_field(pi)
    rec = lemnatomic_exact(beta)
    if divides(pi_val, rec.beta):
        raise InputError(f"pi = {format_gauss(pi_val)} divides beta = {format_gauss(rec.beta)}")
    ring = residue_ring(rec.beta)
    order = _order_of(ring, class_of(pi_val, ring, "primary"), phi_norm(rec.beta))
    reduced = reduce_poly(rec.coefficients, field)
    if not squarefree(reduced):
        return False  # the predicted orbit structure fails
    return set(factor_degrees(reduced)) == {order}


def _class_subgroup(primes, beta: GaussInt, normalization: str) -> tuple:
    """(classes, subgroup order, group order): the classes mod beta of the
    scanned primes that do not divide beta, sorted by (re, im), the order of
    the subgroup of (Z[i]/beta)* they generate, and phi_norm(beta).

    Scanned primes are primary, as are the ring's prime factors, so pi
    divides beta exactly when its value is one of them.  A
    class is the primary value reduced in primary mode, the first-quadrant
    associate reduced as written in raw mode.
    """
    ring = residue_ring(beta)
    divisors = {prime.value for prime in ring.primes}
    raw = normalization == "raw"
    classes = {
        ring.canonical_rep(canonical_associate(pi.value) if raw else pi.value)
        for pi in primes
        if pi.value not in divisors
    }
    classes = sorted(classes, key=lambda c: (c.re, c.im))
    return classes, len(_closure(ring, classes)[0]), phi_norm(beta)


def prop2_evidence(g: PolyZi, beta, bound: int, normalization: str = "primary") -> Prop2Report:
    """Collect the classes mod beta of semi-split primes of the field g
    defines and test whether they generate the full unit group; if they do,
    the irreducibility criterion's hypothesis is met at this bound."""
    if normalization not in ("primary", "raw"):
        raise InputError(f"unknown normalization {normalization!r}")
    beta = _check_beta(beta)
    status = _scan(g, bound)
    classes, sub, order = _class_subgroup(_primes(bound, status, _ROOTS), beta, normalization)
    return Prop2Report(
        poly=g,
        beta=beta,
        bound=bound,
        normalization=normalization,
        classes=tuple(classes),
        subgroup_order=sub,
        group_order=order,
        criterion_satisfied=sub == order,
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
    disc = _root_disc(h)
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
    splitting = _primes(bound, _scan(h, bound), (SPLITS,))
    rows: list[TheoremCandidate] = []
    for beta in candidates:
        _, sub, order = _class_subgroup(splitting, beta, normalization)
        rows.append(TheoremCandidate(beta, order, sub, witness=sub < order))
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
    status = _scan(h, bound)
    count_p, count_all = status.count(SPLITS), len(status)
    ratio = count_p / count_all if count_all else 0.0
    return DensityReport(
        poly=h,
        bound=bound,
        count_p=count_p,
        count_all_odd=count_all,
        ratio=ratio,
        expected=1 / h.degree(),
    )
