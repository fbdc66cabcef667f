"""Command-line front end: argument handling, JSON schemas, exit codes,
polynomial source spellings, caching, and output determinism."""

import json

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
        # the wrong one keeps every record invariant, Lambda(0) = -1+2i included.
        wrong = LemnatomicRecord.build(gi("-1+2i"), poly([gi("-1+2i"), 1, 0, 0, 1]), "exact", 0)
        monkeypatch.setattr("lemnatomic.cli.lemnatomic_exact", lambda beta: wrong)
        code, _, err = run(capsys, "lemnatomic", "-1+2i", "--method", "both")
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
