"""Write reference.json: the outputs every benchmark operation is checked against.

Run from the repository root:  python3 perfbench/make_reference.py

Rungs computed by both routes must agree; rungs only the numeric route
reaches (13+10i, 17, -19) keep the numeric output, which lemnatomic accepts
only after its own check at twice the precision.  Regenerate the file only
when the inputs change on purpose, never to make a failing run pass.
"""

from __future__ import annotations

import json
import sys

import workloads as w


def _rung(lem, beta: str, method: str) -> dict:
    code, out, err = w.cli_call(lem, ["lemnatomic", beta, "--method", method, "--json"])
    if code != 0:
        sys.exit(f"{method} {beta}: exit code {code}: {err}")
    data = json.loads(out)
    return {key: data[key] for key in ("beta", "degree", "checksum")}


def main() -> None:
    lem = w.load_lemnatomic()
    rungs = {}
    for beta in w.NUMERIC_RUNGS:
        ref = _rung(lem, beta, "numeric")
        routes = ["numeric"]
        if beta in w.EXACT_RUNGS:
            if _rung(lem, beta, "exact") != ref:
                sys.exit(f"exact and numeric routes disagree at {beta}")
            routes = ["exact", "numeric"]
        if ref["degree"] != lem.phi_norm(lem.parse_gauss(beta)):
            sys.exit(f"degree of {beta} is not phi_norm(beta)")
        rungs[beta] = {**ref, "routes": routes}
    polys = w.prepare("scan-suite", lem, None)
    scan = {}
    for beta in w.SCAN_BETAS:
        scan[beta] = {}
        for name in w.REPORTS:
            data = getattr(lem, name)(*w.report_args(lem, polys, beta, name)).to_json_dict()
            scan[beta][name] = {"summary": w.report_summary(name, data), "digest": w.report_digest(data)}
    reference = {"scan_bound": w.SCAN_BOUND, "rungs": rungs, "scan": scan}
    w.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
