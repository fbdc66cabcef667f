"""Command-line front end: argument handling, JSON schemas, exit codes,
polynomial source spellings, caching, and output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import gi
from lemnatomic import lemniscate
from lemnatomic.cli import dispatch
from lemnatomic.errors import PrecisionError
from lemnatomic.exact import LemnatomicRecord
from lemnatomic.gaussint import primes_up_to_norm
from lemnatomic.zipoly import poly


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out else None, err


class TestGaussCommands:
    def test_factor_five_json(self, capsys):
        code, data, _ = run_json(capsys, "factor", "5")
        assert code == 0
        assert data == {
            "factors": [["-1+2i", 1], ["-1-2i", 1]],
            "schema_version": 1,
            "unit": "1",
        }

    def test_factor_dash_literal(self, capsys):
        code, out, _ = run(capsys, "factor", "-3")
        assert code == 0
        assert "factors: (-3)^1" in out

    def test_factor_bad_literal(self, capsys):
        code, _, err = run(capsys, "factor", "2+x")
        assert code == 1
        assert "error:" in err

    def test_dash_leading_bad_literal_gets_its_own_parse_error(self, capsys):
        # the handler, not argparse, judges the literal; the position counts
        # from the literal as typed, not from the padding argparse needs
        code, out, err = run(capsys, "factor", "-2+x")
        assert (code, out) == (1, "")
        assert err == "error: invalid character 'x' in Gaussian literal (at position 3)\n"

    def test_dash_leading_literal_past_the_int_digit_limit_is_an_error_line(self, capsys):
        digits = "1" * (sys.get_int_max_str_digits() or 4300) * 2
        code, out, err = run(capsys, "factor", f"-{digits}i")
        assert (code, out) == (1, "")
        assert err == f"error: a part of {len(digits)} digits is too long for int() (at position 0)\n"

    def test_dash_leading_literals_and_option_values_still_parse(self, capsys):
        code, data, _ = run_json(capsys, "factor", "-3-4i")
        assert (code, data["unit"], data["factors"]) == (0, "1", [["-1+2i", 2]])
        code, data, _ = run_json(capsys, "primary", "-i")
        assert (code, data["input"], data["primary"]) == (0, "-i", "1")
        # a negative bound reaches the handler, which rejects it
        code, out, err = run(capsys, "primes", "--max-norm", "-5")
        assert (code, out, err) == (1, "", "error: bound must be at least 2\n")

    def test_factor_past_the_int_digit_limit_is_an_error_line(self, capsys):
        code, out, err = run(capsys, "factor", "1" * (sys.get_int_max_str_digits() or 4300) * 2)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "digits" in err

    def test_non_ascii_digits_are_an_error_line(self, capsys):
        # 13 in Arabic-Indic digits is not the literal 13
        code, out, err = run(capsys, "lemnatomic", "\u0661\u0663", "--method", "exact")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "invalid character" in err

    def test_primary(self, capsys):
        code, data, _ = run_json(capsys, "primary", "2+i")
        assert code == 0
        assert data == {"input": "2+i", "primary": "-1+2i", "schema_version": 1, "unit": "i"}

    def test_primes_list(self, capsys):
        code, data, _ = run_json(capsys, "primes", "--max-norm", "10")
        assert code == 0
        assert [p["value"] for p in data["primes"]] == ["-1+2i", "-1-2i", "-3"]
        assert data["count"] == 3

    def test_primes_include_even(self, capsys):
        code, data, _ = run_json(capsys, "primes", "--max-norm", "10", "--include-even")
        assert code == 0
        assert data["primes"][0]["value"] == "1+i"
        assert data["primes"][0]["kind"] == "ramified"

    def test_unitgroup(self, capsys):
        code, data, _ = run_json(capsys, "unitgroup", "-3")
        assert code == 0
        assert data["order"] == 8
        assert data["invariant_factors"] == [8]

    def test_unitgroup_above_the_enumeration_limit_fails_fast(self, capsys):
        # N(1001) = 1002001 residues would take seconds and hundreds of MB
        code, out, err = run(capsys, "unitgroup", "1001")
        assert code == 1 and not out
        assert "enumeration limit of 1000000" in err


class TestLemnatomicCommand:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run(capsys, "lemnatomic", "-1+2i", "--method", "both")
        assert code == 0
        assert "pipelines agree: true" in out
        assert "polynomial: X^4 + (-1+2i)" in out

    def test_json_record(self, capsys):
        code, data, _ = run_json(capsys, "lemnatomic", "-1+2i", "--method", "both")
        assert code == 0
        assert data["beta"] == "-1+2i"
        assert data["degree"] == 4
        assert data["pipelines_agree"] is True
        assert data["coefficients"]["coeffs"] == ["-1+2i", "0", "0", "0", "1"]
        assert len(data["checksum"]) == 64

    def test_methods_match(self, capsys):
        _, exact, _ = run_json(capsys, "lemnatomic", "-3", "--method", "exact")
        _, numeric, _ = run_json(capsys, "lemnatomic", "-3", "--method", "numeric")
        assert exact["coefficients"] == numeric["coefficients"]

    def test_precision_above_the_ceiling_rejected_before_any_round(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(lemniscate, "_numeric_poly_at", lambda beta, ring, bits: seen.append(bits))
        code, out, err = run(
            capsys, "lemnatomic", "-1+2i", "--method", "numeric", "--precision-bits", "8192"
        )
        assert (code, out, seen) == (1, "", [])
        assert err.startswith("error:") and "ceiling of 4096 bits" in err

    def test_both_rejects_the_precision_before_the_exact_route(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr("lemnatomic.cli.lemnatomic_exact", lambda beta: seen.append(beta))
        code, out, err = run(
            capsys, "lemnatomic", "-31", "--method", "both", "--precision-bits", "8192"
        )
        assert (code, out, seen) == (1, "", [])
        assert err.startswith("error:") and "ceiling of 4096 bits" in err

    @pytest.mark.parametrize("bits", ["0", "-5"])
    @pytest.mark.parametrize("method", ["numeric", "both"])
    def test_precision_below_one_bit_rejected_before_any_route(self, capsys, monkeypatch, method, bits):
        seen = []
        monkeypatch.setattr("lemnatomic.cli.lemnatomic_exact", lambda *args: seen.append(args))
        monkeypatch.setattr(lemniscate, "_numeric_poly_at", lambda *args: seen.append(args))
        code, out, err = run(
            capsys, "lemnatomic", "-3", "--method", method, "--precision-bits", bits, "--json"
        )
        assert (code, out, seen) == (1, "", [])
        assert err.startswith("error:") and "precision_bits must be positive" in err

    def test_precision_rejected_on_a_cache_hit(self, capsys, tmp_path):
        argv = ("lemnatomic", "-3", "--method", "numeric", "--cache-dir", str(tmp_path))
        assert run(capsys, *argv)[0] == 0
        for bits in ("0", "8192"):
            code, out, err = run(capsys, *argv, "--precision-bits", bits)
            assert (code, out) == (1, "") and err.startswith("error:"), bits

    def test_even_beta_rejected(self, capsys):
        code, _, err = run(capsys, "lemnatomic", "1+i")
        assert code == 1
        assert "error:" in err

    def test_unit_beta_rejected(self, capsys):
        assert run(capsys, "lemnatomic", "i")[0] == 1


class TestPolySources:
    def test_lemnatomic_source(self, capsys):
        code, data, _ = run_json(capsys, "split-test", "lemnatomic:-1+2i", "-3")
        assert code == 0
        assert data["splits_completely"] is False

    def test_coeffs_source(self, capsys):
        code, data, _ = run_json(capsys, "split-test", "coeffs:-1,1", "-3")
        assert code == 0
        assert data["splits_completely"] is True

    def test_file_source(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"coeffs": ["1", "0", "1"]}), encoding="ascii")
        code, data, _ = run_json(capsys, "reduce", str(path), "-1+2i")
        assert code == 0
        assert data["p"] == 5 and data["field_degree"] == 1
        assert data["i_image"] == 3
        assert data["coeffs"] == [1, 0, 1]

    def test_record_shaped_file(self, capsys, tmp_path):
        _, record, _ = run_json(capsys, "lemnatomic", "-3")
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(record), encoding="ascii")
        code, data, _ = run_json(capsys, "density", str(path), "--max-norm", "300")
        assert code == 0
        assert data["poly"]["coeffs"] == record["coefficients"]["coeffs"]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "reduce", "/nonexistent/h.json", "-3")
        assert code == 1
        assert "not found" in err

    def test_garbage_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="ascii")
        assert run(capsys, "reduce", str(path), "-3")[0] == 1


class TestReduceOutput:
    # Lambda_{-3-4i} mod the inert -7: residues in F_49 with nonzero
    # imaginary parts, pinned byte for byte in both output forms
    def test_inert_reduction_json(self, capsys):
        code, out, _ = run(capsys, "reduce", "lemnatomic:-3-4i", "-7", "--json")
        assert code == 0
        assert out == (
            '{"coeffs": [[6, 2], [0, 0], [0, 0], [0, 0], [2, 1], [0, 0], [0, 0], [0, 0], [5, 1], '
            "[0, 0], [0, 0], [0, 0], [3, 2], [0, 0], [0, 0], [0, 0], [4, 5], [0, 0], [0, 0], [0, 0], "
            '[1, 0]], "field_degree": 2, "i_image": [0, 1], "p": 7, "prime": "-7", "schema_version": 1}\n'
        )

    def test_inert_reduction_human(self, capsys):
        code, out, _ = run(capsys, "reduce", "lemnatomic:-3-4i", "-7")
        assert code == 0
        assert out == (
            "prime: -7 (q = 49)\n"
            "reduction: (1+0j)*X^20 + (4+5j)*X^16 + (3+2j)*X^12 + (5+1j)*X^8 + (2+1j)*X^4 + (6+2j)\n"
        )


class TestVerificationCommands:
    def test_scan_splitting(self, capsys):
        code, data, _ = run_json(
            capsys, "scan-splitting", "lemnatomic:-1+2i", "--max-norm", "300"
        )
        assert code == 0
        assert data["skipped"] == ["-1+2i"]
        assert data["count"] == len(data["primes"]) > 0

    def test_semisplit_linear(self, capsys):
        code, data, _ = run_json(capsys, "semisplit", "coeffs:0,1", "--max-norm", "100")
        assert code == 0
        assert data["count"] == len(primes_up_to_norm(100, odd_only=True))

    def test_verify_prop1_passes(self, capsys):
        code, data, _ = run_json(capsys, "verify-prop1", "-3", "--max-norm", "300")
        assert code == 0
        assert data["passed"] is True and data["failures"] == []

    def test_prop2_primary_vs_raw(self, capsys):
        code, primary, _ = run_json(
            capsys,
            "prop2-evidence", "lemnatomic:-1+2i", "--beta", "-1+2i", "--max-norm", "300",
        )
        assert code == 0 and primary["criterion_satisfied"] is False
        code, raw, _ = run_json(
            capsys,
            "prop2-evidence", "lemnatomic:-1+2i", "--beta", "-1+2i", "--max-norm", "300",
            "--normalization", "raw",
        )
        assert code == 0 and raw["criterion_satisfied"] is True

    def test_verify_theorem_witness(self, capsys):
        code, data, _ = run_json(
            capsys, "verify-theorem", "lemnatomic:-1+2i", "--max-norm", "500"
        )
        assert code == 0
        assert "-1+2i" in data["witnesses"]

    def test_verify_theorem_even_disc(self, capsys):
        assert run(capsys, "verify-theorem", "coeffs:1,0,1", "--max-norm", "100")[0] == 1

    def test_density_linear(self, capsys):
        code, data, _ = run_json(capsys, "density", "coeffs:-1,1", "--max-norm", "300")
        assert code == 0
        assert data["ratio"] == 1.0

    def test_orbit_check_true(self, capsys):
        code, out, _ = run(capsys, "orbit-check", "-1+2i", "-3")
        assert code == 0
        assert "true" in out

    def test_orbit_check_pi_divides_beta(self, capsys):
        assert run(capsys, "orbit-check", "-3", "-3")[0] == 1

    @pytest.mark.parametrize("beta, pi", [("-3", "5"), ("-1+2i", "21")])
    def test_orbit_check_composite_pi_rejected(self, capsys, beta, pi):
        # A composite pi is malformed input, not a violation of the orbit law.
        code, out, err = run(capsys, "orbit-check", beta, pi)
        assert code == 1
        assert f"{pi} is not a Gaussian prime" in err
        assert out == ""


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(capsys, "summon")[0] == 1

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, "factor", "5", "--frobnicate")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_verification_failure_exit_two(self, capsys, monkeypatch):
        # Force the cross-pipeline comparison to see different polynomials;
        # the wrong one keeps every record invariant, the X^4 shape,
        # Lambda(0) = -3 and Lambda(1) = -4 included (X^8 + 6X^4 - 3 is right).
        wrong = LemnatomicRecord.build(gi("-3"), poly([-3, 0, 0, 0, -2, 0, 0, 0, 1]), "exact", 0)
        monkeypatch.setattr("lemnatomic.cli.lemnatomic_exact", lambda beta: wrong)
        code, _, err = run(capsys, "lemnatomic", "-3", "--method", "both")
        assert code == 2
        assert "verification failure" in err

    def test_precision_failure_exit_three(self, capsys, monkeypatch):
        def blown(beta, bits):
            raise PrecisionError("escalation ceiling reached")

        monkeypatch.setattr("lemnatomic.cli.lemnatomic_numeric", blown)
        code, _, err = run(capsys, "lemnatomic", "-3", "--method", "numeric")
        assert code == 3
        assert "precision failure" in err


class TestCommandsInARow:
    def test_each_command_keeps_its_own_options(self, capsys, tmp_path):
        code, numeric, _ = run_json(
            capsys, "lemnatomic", "-3", "--method", "numeric", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert (numeric["method"], numeric["precision_bits"], numeric["cached"]) == (
            "numeric",
            256,
            False,
        )
        # The defaults come back: exact method, no cache directory.
        code, exact, _ = run_json(capsys, "lemnatomic", "-3")
        assert code == 0
        assert (exact["method"], exact["precision_bits"], exact["cached"]) == ("exact", 0, False)
        assert exact["coefficients"] == numeric["coefficients"]
        assert exact["checksum"] == numeric["checksum"]
        code, _, err = run(capsys, "factor", "5", "--method", "exact")
        assert code == 1 and "unrecognized arguments" in err
        code, data, _ = run_json(capsys, "factor", "5")
        assert code == 0
        assert data == {
            "factors": [["-1+2i", 1], ["-1-2i", 1]],
            "schema_version": 1,
            "unit": "1",
        }


class TestCacheFlow:
    def test_store_then_hit(self, capsys, tmp_path):
        code, first, _ = run_json(capsys, "lemnatomic", "-3", "--cache-dir", str(tmp_path))
        assert code == 0
        assert first["cached"] is False
        assert (tmp_path / "lemnatomic_-3.json").exists()
        code, second, _ = run_json(capsys, "lemnatomic", "-3", "--cache-dir", str(tmp_path))
        assert code == 0
        assert second["cached"] is True
        assert second["coefficients"] == first["coefficients"]

    def test_steady_state_byte_identical(self, capsys, tmp_path):
        run(capsys, "lemnatomic", "-3", "--cache-dir", str(tmp_path), "--json")
        _, out_a, _ = run(capsys, "lemnatomic", "-3", "--cache-dir", str(tmp_path), "--json")
        _, out_b, _ = run(capsys, "lemnatomic", "-3", "--cache-dir", str(tmp_path), "--json")
        assert out_a == out_b

    def test_corrupted_entry_recomputed(self, capsys, tmp_path):
        run(capsys, "lemnatomic", "-3", "--cache-dir", str(tmp_path))
        entry = tmp_path / "lemnatomic_-3.json"
        entry.write_text(entry.read_text(encoding="ascii")[:40], encoding="ascii")
        code, data, _ = run_json(capsys, "lemnatomic", "-3", "--cache-dir", str(tmp_path))
        assert code == 0
        assert data["cached"] is False
        json.loads(entry.read_text(encoding="ascii"))  # overwritten with a clean entry

    def test_unwritable_dir_warns_and_computes(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="ascii")
        code, out, err = run(
            capsys, "lemnatomic", "-3", "--cache-dir", str(blocker / "sub")
        )
        assert code == 0
        assert "not writable" in err
        assert "degree: 8" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("scan-splitting", "lemnatomic:-1+2i", "--max-norm", "300"),
            ("verify-theorem", "lemnatomic:-1+2i", "--max-norm", "300"),
            ("lemnatomic", "-3", "--method", "both"),
            ("density", "lemnatomic:-3", "--max-norm", "500"),
        ],
    )
    def test_repeat_runs_byte_identical(self, capsys, argv):
        _, out_a, _ = run(capsys, *argv, "--json")
        _, out_b, _ = run(capsys, *argv, "--json")
        assert out_a == out_b and out_a

    def test_json_parses_back(self, capsys):
        for argv in (
            ("factor", "-3-4i"),
            ("verify-prop1", "-3", "--max-norm", "200"),
            ("unitgroup", "-1+2i"),
        ):
            code, data, _ = run_json(capsys, *argv)
            assert code == 0
            assert data["schema_version"] == 1


# The exact --json stdout of commands whose payloads the handlers pass raw
# (Gaussian integers, primes, polynomials, tuples) to one encoder.
PINNED_STDOUT = [
    (
        ("factor", "5"),
        '{"factors": [["-1+2i", 1], ["-1-2i", 1]], "schema_version": 1, "unit": "1"}',
    ),
    (("primary", "3i"), '{"input": "3i", "primary": "-3", "schema_version": 1, "unit": "i"}'),
    (
        ("unitgroup", "-3"),
        '{"generators": ["i", "1+i"], "invariant_factors": [8], "modulus": "-3", "order": 8, '
        '"schema_version": 1}',
    ),
    (
        ("primes", "--max-norm", "30", "--include-even"),
        '{"bound": 30, "count": 10, "primes": [{"kind": "ramified", "norm": 2, "value": "1+i"}, '
        '{"kind": "split", "norm": 5, "value": "-1+2i"}, {"kind": "split", "norm": 5, "value": "-1-2i"}, '
        '{"kind": "inert", "norm": 9, "value": "-3"}, {"kind": "split", "norm": 13, "value": "3+2i"}, '
        '{"kind": "split", "norm": 13, "value": "3-2i"}, {"kind": "split", "norm": 17, "value": "1+4i"}, '
        '{"kind": "split", "norm": 17, "value": "1-4i"}, {"kind": "split", "norm": 29, "value": "-5+2i"}, '
        '{"kind": "split", "norm": 29, "value": "-5-2i"}], "schema_version": 1}',
    ),
    (
        ("semisplit", "coeffs:-2,0,1", "--max-norm", "50"),
        '{"bound": 50, "count": 6, "poly": {"coeffs": ["-2", "0", "1"]}, '
        '"primes": ["-3", "1+4i", "1-4i", "5+4i", "5-4i", "-7"], "schema_version": 1}',
    ),
    (
        ("split-test", "lemnatomic:-1+2i", "-3"),
        '{"prime": "-3", "schema_version": 1, "splits_completely": false}',
    ),
    (("orbit-check", "-1+2i", "-3"), '{"beta": "-1+2i", "holds": true, "pi": "-3", "schema_version": 1}'),
]


class TestWireFormat:
    @pytest.mark.parametrize("argv, line", PINNED_STDOUT, ids=[" ".join(a) for a, _ in PINNED_STDOUT])
    def test_json_stdout_bytes(self, capsys, argv, line):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out == line + "\n"


# Run in a fresh interpreter: every command, the numeric route included, must
# leave mpmath (and fractions and decimal, which only a Fraction would pull in)
# unimported; the mpmath-typed lemniscate_constant then loads mpmath, and the
# numeric routes agree with the exact one.
COLD_START_SCRIPT = """
import contextlib, io, json, sys
import lemnatomic, lemnatomic.cli
from lemnatomic.cli import dispatch

def call(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(list(argv))
    return code, out.getvalue()

def loaded():
    return [m for m in ("mpmath", "fractions", "decimal") if m in sys.modules]

runs = [
    call("lemnatomic", "-3", "--json"),
    call("primes", "--max-norm", "100", "--json"),
    call("scan-splitting", "lemnatomic:-3", "--max-norm", "500", "--json"),
    call("verify-theorem", "lemnatomic:-1+2i", "--max-norm", "300", "--json"),
    call("density", "lemnatomic:-3", "--max-norm", "500", "--json"),
    call("unitgroup", "-3", "--json"),
    call("orbit-check", "-1+2i", "-3", "--json"),
    call("lemnatomic", "-3", "--method", "numeric", "--json"),
    call("lemnatomic", "-3", "--method", "both", "--json"),
]
cold = loaded()
lemnatomic.lemniscate_constant(64)
print(json.dumps({"runs": runs, "cold": cold, "warm": loaded()}))
"""


class TestColdStart:
    def test_only_the_mpmath_typed_api_loads_mpmath(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", COLD_START_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(done.stdout)
        assert [code for code, _ in result["runs"]] == [0] * 9
        assert result["cold"] == []
        assert result["warm"] == ["mpmath"]
        exact = json.loads(result["runs"][0][1])
        for (_, out), method in zip(result["runs"][-2:], ("numeric", "both")):
            numeric = json.loads(out)
            assert numeric["method"] == method
            assert numeric["coefficients"] == exact["coefficients"]
            assert numeric["checksum"] == exact["checksum"]
