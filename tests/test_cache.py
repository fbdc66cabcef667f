"""On-disk cache: atomic round-trips and the miss paths (corruption, schema
drift, tampering, unwritable directories)."""

import json

from conftest import gi
from lemnatomic.cache import SCHEMA_VERSION, cache_load, cache_path, cache_store
from lemnatomic.exact import lemnatomic_exact, record_checksum
from lemnatomic.zipoly import from_json_dict


def stored(tmp_path, b="-3"):
    record = lemnatomic_exact(gi(b))
    assert cache_store(record, tmp_path) is True
    return record, cache_path(tmp_path, record.beta)


def rewrite(path, mutate):
    data = json.loads(path.read_text(encoding="ascii"))
    mutate(data)
    path.write_text(json.dumps(data), encoding="ascii")


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        record, path = stored(tmp_path)
        assert path.name == "lemnatomic_-3.json"
        hit = cache_load(record.beta, tmp_path)
        assert hit is not None
        assert hit.coefficients == record.coefficients
        assert hit.checksum == record.checksum
        assert hit.method == record.method

    def test_miss_on_empty_dir(self, tmp_path):
        assert cache_load(gi("-3"), tmp_path) is None

    def test_one_file_per_beta(self, tmp_path):
        stored(tmp_path, "-3")
        stored(tmp_path, "-1+2i")
        assert cache_load(gi("-1+2i"), tmp_path).beta == gi("-1+2i")
        assert cache_load(gi("-3"), tmp_path).beta == gi("-3")

    def test_store_creates_directory(self, tmp_path):
        nested = tmp_path / "a" / "b"
        record = lemnatomic_exact(gi("-3"))
        assert cache_store(record, nested) is True
        assert cache_load(record.beta, nested) is not None

    def test_no_temp_files_left(self, tmp_path):
        stored(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["lemnatomic_-3.json"]


class TestMissPaths:
    def test_truncated_file(self, tmp_path):
        record, path = stored(tmp_path)
        path.write_text(path.read_text(encoding="ascii")[:25], encoding="ascii")
        assert cache_load(record.beta, tmp_path) is None

    def test_schema_version_mismatch(self, tmp_path):
        record, path = stored(tmp_path)
        rewrite(path, lambda d: d.update(schema_version=SCHEMA_VERSION + 1))
        assert cache_load(record.beta, tmp_path) is None

    def test_checksum_tamper(self, tmp_path):
        record, path = stored(tmp_path)
        rewrite(path, lambda d: d.update(checksum="0" * 64))
        assert cache_load(record.beta, tmp_path) is None

    def test_coefficient_tamper(self, tmp_path):
        record, path = stored(tmp_path)

        def flip(d):
            d["coefficients"]["coeffs"][0] = "7"

        rewrite(path, flip)
        assert cache_load(record.beta, tmp_path) is None

    def test_non_monic_with_matching_degree_and_checksum(self, tmp_path):
        record, path = stored(tmp_path)

        def scale_lead(d):
            d["coefficients"]["coeffs"][-1] = "2"
            d["checksum"] = record_checksum(record.beta, from_json_dict(d["coefficients"]))

        rewrite(path, scale_lead)
        data = json.loads(path.read_text(encoding="ascii"))
        assert data["degree"] == len(data["coefficients"]["coeffs"]) - 1
        assert cache_load(record.beta, tmp_path) is None

    def test_wrong_constant_term_with_matching_checksum(self, tmp_path):
        record, path = stored(tmp_path)

        def negate_constant(d):
            d["coefficients"]["coeffs"][0] = "3"
            d["checksum"] = record_checksum(record.beta, from_json_dict(d["coefficients"]))

        rewrite(path, negate_constant)
        assert cache_load(record.beta, tmp_path) is None

    def test_degree_tamper(self, tmp_path):
        record, path = stored(tmp_path)
        rewrite(path, lambda d: d.update(degree=4))
        assert cache_load(record.beta, tmp_path) is None

    def test_beta_mismatch(self, tmp_path):
        record, path = stored(tmp_path)
        rewrite(path, lambda d: d.update(beta="-1+2i"))
        assert cache_load(record.beta, tmp_path) is None
        assert cache_load(gi("-1+2i"), tmp_path) is None  # wrong file name for that beta

    def test_missing_field(self, tmp_path):
        record, path = stored(tmp_path)
        rewrite(path, lambda d: d.pop("method"))
        assert cache_load(record.beta, tmp_path) is None

    def test_bad_method_value(self, tmp_path):
        record, path = stored(tmp_path)
        rewrite(path, lambda d: d.update(method="guess"))
        assert cache_load(record.beta, tmp_path) is None

    def test_non_dict_payload(self, tmp_path):
        record, path = stored(tmp_path)
        path.write_text(json.dumps([1, 2, 3]), encoding="ascii")
        assert cache_load(record.beta, tmp_path) is None

    def test_recompute_overwrites_corruption(self, tmp_path):
        record, path = stored(tmp_path)
        path.write_text("{", encoding="ascii")
        assert cache_load(record.beta, tmp_path) is None
        assert cache_store(record, tmp_path) is True
        assert cache_load(record.beta, tmp_path).coefficients == record.coefficients


class TestUnwritable:
    def test_store_returns_false(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="ascii")
        record = lemnatomic_exact(gi("-3"))
        assert cache_store(record, blocker / "sub") is False
