"""Command-line front end.

Commands cover Gaussian-integer arithmetic (primes, factor, primary,
unitgroup), the two lemnatomic pipelines (lemnatomic), residue-field
reductions (reduce, split-test), and the verification engines
(scan-splitting, semisplit, verify-prop1, prop2-evidence, verify-theorem,
density, orbit-check).

Exit codes: 0 success; 1 malformed input (including unknown commands or
flags); 2 verification failure, meaning a property the theory predicts was
found violated; 3 precision failure after the escalation ceiling.  Internal
invariant violations are bugs and raise straight through.

--json emits one machine-readable object with schema_version and sorted
keys, so identical invocations produce byte-identical output.  Each handler
hands its payload, Gaussian integers, primes, polynomials and tuples raw, to
zipoly.to_json once; only an F_{p^2} residue is written by hand, as [re, im].

Polynomial arguments accept three spellings: a path to a JSON file
{"coeffs": [...]}, an inline "coeffs:c0,c1,..." list of Gaussian literals
(ascending), or "lemnatomic:<beta>" for the exact lemnatomic polynomial of
beta.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cache import SCHEMA_VERSION, cache_load, cache_store
from .classfield import (
    density_report,
    frobenius_orbit_check,
    prop2_evidence,
    semisplit_primes,
    splitting_primes,
    theorem_search,
    verify_prop1,
)
from .errors import InputError, PrecisionError, VerificationError
from .exact import LemnatomicRecord, lemnatomic_exact
from .gaussint import (
    GaussInt,
    _check_beta,
    factor,
    format_gauss,
    parse_gauss,
    primary_normalize,
    primes_up_to_norm,
)
from .gfq import reduce_poly, splits_completely
from .lemniscate import _check_precision, lemnatomic_numeric
from .residue import residue_ring, unit_group
from .zipoly import PolyZi, from_json_dict, to_json

__all__ = ["dispatch", "main"]


# -- shared plumbing -----------------------------------------------------------


def _emit(args, data: dict, human) -> None:
    """Print data as JSON under --json, else the lines human() builds, so a
    command formats its human-readable form only when it is printed."""
    if args.json:
        print(json.dumps({"schema_version": SCHEMA_VERSION, **data}, sort_keys=True))
    else:
        for line in human():
            print(line)


def _load_poly(spec: str) -> PolyZi:
    spec = spec.strip()
    if spec.startswith("lemnatomic:"):
        return lemnatomic_exact(parse_gauss(spec[len("lemnatomic:"):])).coefficients
    if spec.startswith("coeffs:"):
        body = spec[len("coeffs:"):]
        return PolyZi.make([parse_gauss(tok.strip()) for tok in body.split(",")])
    path = Path(spec)
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="ascii"))
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read polynomial file {spec}: {exc}") from exc
        if isinstance(data, dict) and "coeffs" in data:
            return from_json_dict(data)
        if isinstance(data, dict) and isinstance(data.get("coefficients"), dict):
            return from_json_dict(data["coefficients"])
        raise InputError(f'{spec} holds neither {{"coeffs": ...}} nor a record with "coefficients"')
    raise InputError(f"polynomial source not found: {spec}")


def _fq_coeff_json(c):
    return [c.re, c.im] if isinstance(c, GaussInt) else c


# -- command handlers ----------------------------------------------------------


def _cmd_primes(args) -> int:
    primes = primes_up_to_norm(args.max_norm, odd_only=not args.include_even)
    _emit(
        args,
        to_json(
            {
                "bound": args.max_norm,
                "primes": [{"value": p.value, "norm": p.norm, "kind": p.kind} for p in primes],
                "count": len(primes),
            }
        ),
        lambda: [f"{format_gauss(p.value):>12s}  norm={p.norm:<8d} {p.kind}" for p in primes]
        + [f"count: {len(primes)}"],
    )
    return 0


def _cmd_factor(args) -> int:
    unit, facs = factor(parse_gauss(args.value))
    _emit(
        args,
        to_json({"unit": unit, "factors": facs}),
        lambda: [
            f"unit: {format_gauss(unit)}",
            "factors: "
            + (" * ".join(f"({format_gauss(p.value)})^{e}" for p, e in facs) or "1"),
        ],
    )
    return 0


def _cmd_primary(args) -> int:
    z = parse_gauss(args.value)
    unit, primary = primary_normalize(z)
    _emit(
        args,
        to_json({"input": z, "unit": unit, "primary": primary}),
        lambda: [f"primary associate: {format_gauss(primary)}", f"unit applied: {format_gauss(unit)}"],
    )
    return 0


def _cmd_unitgroup(args) -> int:
    group = unit_group(residue_ring(parse_gauss(args.beta)))
    _emit(
        args,
        to_json(
            {
                "modulus": group.ring.modulus,
                "order": group.order,
                "invariant_factors": group.invariant_factors,
                "generators": group.generators,
            }
        ),
        lambda: [
            f"modulus: {format_gauss(group.ring.modulus)}",
            f"order: {group.order}",
            f"invariant factors: {list(group.invariant_factors)}",
            f"generators: {[format_gauss(g) for g in group.generators]}",
        ],
    )
    return 0


def _cmd_lemnatomic(args) -> int:
    beta = _check_beta(parse_gauss(args.beta))
    if args.method != "exact":  # before a cache hit or the minutes of the exact route
        _check_precision(args.precision_bits)
    record = None
    cached = False
    if args.cache_dir and args.method in ("exact", "numeric"):
        hit = cache_load(beta, args.cache_dir)
        if hit is not None and hit.method in (args.method, "both"):
            record, cached = hit, True
    if record is None:
        if args.method == "exact":
            record = lemnatomic_exact(beta)
        elif args.method == "numeric":
            poly, report = lemnatomic_numeric(beta, args.precision_bits)
            record = LemnatomicRecord.build(beta, poly, "numeric", report.precision_bits)
        else:
            exact_record = lemnatomic_exact(beta)
            poly, report = lemnatomic_numeric(beta, args.precision_bits)
            if exact_record.coefficients != poly:
                raise VerificationError(
                    f"exact and numeric pipelines disagree for beta = {format_gauss(beta)}"
                )
            record = LemnatomicRecord.build(
                beta, exact_record.coefficients, "both", report.precision_bits
            )
        if args.cache_dir and not cache_store(record, args.cache_dir):
            print(
                f"warning: cache directory {args.cache_dir} is not writable; result not cached",
                file=sys.stderr,
            )
    data = {**to_json(record), "cached": cached}
    if args.method == "both":
        data["pipelines_agree"] = True

    def human() -> list:
        lines = [
            f"beta: {format_gauss(record.beta)} (primary)",
            f"degree: {record.degree}",
            f"polynomial: {record.coefficients}",
            "coefficients: " + ", ".join(format_gauss(c) for c in record.coefficients.coeffs),
            f"method: {record.method}",
            f"precision bits: {record.precision_bits}",
            f"checksum: {record.checksum}",
        ]
        if args.method == "both":
            lines.append("pipelines agree: true")
        if cached:
            lines.append("cached: true")
        return lines

    _emit(args, data, human)
    return 0


def _cmd_reduce(args) -> int:
    poly = _load_poly(args.poly)
    reduced = reduce_poly(poly, parse_gauss(args.pi))
    field = reduced.field
    _emit(
        args,
        to_json(
            {
                "prime": field.pi,
                "p": field.p,
                "field_degree": field.degree,
                "i_image": _fq_coeff_json(field.i_image),
                "coeffs": [_fq_coeff_json(c) for c in reduced.coeffs],
            }
        ),
        lambda: [
            f"prime: {format_gauss(field.pi.value)} (q = {field.size})",
            f"reduction: {reduced}",
        ],
    )
    return 0


def _cmd_split_test(args) -> int:
    poly = _load_poly(args.poly)
    pi = parse_gauss(args.pi)
    result = splits_completely(reduce_poly(poly, pi))
    _emit(
        args,
        to_json({"prime": pi, "splits_completely": result}),
        lambda: [f"splits completely mod {format_gauss(pi)}: {str(result).lower()}"],
    )
    return 0


def _cmd_scan_splitting(args) -> int:
    report = splitting_primes(_load_poly(args.poly), args.max_norm)
    _emit(
        args,
        report.to_json_dict(),
        lambda: [
            f"polynomial: {report.poly}",
            f"bound: {report.bound}",
            f"splitting primes ({len(report.primes)}): "
            + ", ".join(format_gauss(p.value) for p in report.primes),
            f"skipped (divide disc): "
            + (", ".join(format_gauss(p.value) for p in report.skipped) or "none"),
        ],
    )
    return 0


def _cmd_semisplit(args) -> int:
    poly = _load_poly(args.poly)
    hits = semisplit_primes(poly, args.max_norm)
    _emit(
        args,
        to_json({"poly": poly, "bound": args.max_norm, "primes": hits, "count": len(hits)}),
        lambda: [
            f"polynomial: {poly}",
            f"semi-split primes ({len(hits)}): " + ", ".join(format_gauss(p.value) for p in hits),
        ],
    )
    return 0


def _cmd_verify_prop1(args) -> int:
    report = verify_prop1(parse_gauss(args.beta), args.max_norm)
    _emit(
        args,
        report.to_json_dict(),
        lambda: [
            f"beta: {format_gauss(report.beta)}",
            f"primes checked: {report.checked}",
            f"failures: {[format_gauss(p.value) for p in report.failures] or 'none'}",
            f"separability holds: {str(report.passed).lower()}",
        ],
    )
    return 0 if report.passed else 2


def _cmd_prop2(args) -> int:
    report = prop2_evidence(
        _load_poly(args.poly), parse_gauss(args.beta), args.max_norm, args.normalization
    )
    _emit(
        args,
        report.to_json_dict(),
        lambda: [
            f"field polynomial: {report.poly}",
            f"beta: {format_gauss(report.beta)}",
            f"normalization: {report.normalization}",
            f"semi-split classes: {[format_gauss(c) for c in report.classes]}",
            f"subgroup order: {report.subgroup_order} of {report.group_order}",
            f"criterion satisfied: {str(report.criterion_satisfied).lower()}",
        ],
    )
    return 0


def _cmd_verify_theorem(args) -> int:
    report = theorem_search(
        _load_poly(args.poly),
        args.max_norm,
        exponent_bound=args.exponent_bound,
        norm_cap=args.norm_cap,
        normalization=args.normalization,
    )

    def human() -> list:
        return [
            f"polynomial: {report.poly}",
            f"discriminant: {format_gauss(report.disc)}",
            f"candidates: {len(report.candidates)}",
            *(
                f"  beta {format_gauss(c.beta):>10s}: subgroup {c.subgroup_order} of "
                f"{c.group_order} -> witness: {str(c.witness).lower()}"
                for c in report.candidates
            ),
            f"witnesses: {[format_gauss(c.beta) for c in report.witnesses] or 'none'}",
            f"notes: {report.notes}",
        ]

    _emit(args, report.to_json_dict(), human)
    return 0


def _cmd_density(args) -> int:
    report = density_report(_load_poly(args.poly), args.max_norm)
    _emit(
        args,
        report.to_json_dict(),
        lambda: [
            f"polynomial: {report.poly}",
            f"splitting primes: {report.count_p} of {report.count_all_odd}",
            f"ratio: {report.ratio:.6f} (heuristic 1/deg = {report.expected:.6f})",
        ],
    )
    return 0


def _cmd_orbit_check(args) -> int:
    beta = parse_gauss(args.beta)
    pi = parse_gauss(args.pi)
    holds = frobenius_orbit_check(beta, pi)
    _emit(
        args,
        to_json({"beta": beta, "pi": pi, "holds": holds}),
        lambda: [f"orbit law for beta={format_gauss(beta)}, pi={format_gauss(pi)}: {str(holds).lower()}"],
    )
    return 0 if holds else 2


# -- parser --------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemnatomic",
        description="Lemnatomic polynomials over Z[i]: computation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    p = cmd("primes", _cmd_primes, "list primary Gaussian primes up to a norm bound")
    p.add_argument("--max-norm", type=int, required=True)
    p.add_argument("--include-even", action="store_true", help="include the ramified prime 1+i")

    p = cmd("factor", _cmd_factor, "factor a Gaussian integer into primary primes")
    p.add_argument("value")

    p = cmd("primary", _cmd_primary, "primary associate of an odd Gaussian integer")
    p.add_argument("value")

    p = cmd("unitgroup", _cmd_unitgroup, "structure of (Z[i]/beta)*")
    p.add_argument("beta")

    p = cmd("lemnatomic", _cmd_lemnatomic, "compute the lemnatomic polynomial of beta")
    p.add_argument("beta")
    p.add_argument("--method", choices=("exact", "numeric", "both"), default="exact")
    p.add_argument("--precision-bits", type=int, default=256)
    p.add_argument("--cache-dir", default=None)

    p = cmd("reduce", _cmd_reduce, "reduce a polynomial modulo an odd prime")
    p.add_argument("poly")
    p.add_argument("pi")

    p = cmd("split-test", _cmd_split_test, "test complete splitting modulo one prime")
    p.add_argument("poly")
    p.add_argument("pi")

    p = cmd("scan-splitting", _cmd_scan_splitting, "scan primes where the polynomial splits completely")
    p.add_argument("poly")
    p.add_argument("--max-norm", type=int, required=True)

    p = cmd("semisplit", _cmd_semisplit, "scan primes where the polynomial has a root")
    p.add_argument("poly")
    p.add_argument("--max-norm", type=int, required=True)

    p = cmd("verify-prop1", _cmd_verify_prop1, "separability sweep for the lemnatomic polynomial of beta")
    p.add_argument("beta")
    p.add_argument("--max-norm", type=int, required=True)

    p = cmd("prop2-evidence", _cmd_prop2, "irreducibility-criterion evidence for a field polynomial")
    p.add_argument("poly")
    p.add_argument("--beta", required=True)
    p.add_argument("--max-norm", type=int, required=True)
    p.add_argument("--normalization", choices=("primary", "raw"), default="primary")

    p = cmd("verify-theorem", _cmd_verify_theorem, "congruence-obstruction witness search")
    p.add_argument("poly")
    p.add_argument("--max-norm", type=int, required=True)
    p.add_argument("--exponent-bound", type=int, default=2)
    p.add_argument("--norm-cap", type=int, default=500)
    p.add_argument("--normalization", choices=("primary", "raw"), default="primary")

    p = cmd("density", _cmd_density, "empirical splitting density up to a bound")
    p.add_argument("poly")
    p.add_argument("--max-norm", type=int, required=True)

    p = cmd("orbit-check", _cmd_orbit_check, "factor degrees mod pi against the class order of pi")
    p.add_argument("beta")
    p.add_argument("pi")

    return parser


def _escape_gauss_args(argv: list) -> list:
    """Pad every dash-leading token that is not an option (-h or --name) with
    a space, so argparse reads it as a positional or an option's value and
    leaves judging it to the handler: a malformed literal such as -2+x then
    gets its own ParseError, not argparse's usage error."""
    return [" " + t if t.startswith("-") and t != "-h" and not t.startswith("--") else t for t in argv]


def dispatch(argv: list) -> int:
    try:
        args = _parser().parse_args(_escape_gauss_args(list(argv)))
    except SystemExit as exc:
        return 0 if not exc.code else 1
    for name, value in vars(args).items():
        if isinstance(value, str) and value.startswith(" -"):
            setattr(args, name, value[1:])  # so a ParseError's position counts from the literal as typed
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
