"""On-disk cache: atomic round-trips and the miss paths (corruption, schema
drift, tampering, unwritable directories)."""

import json

from conftest import gi
from lemnatomic.cache import SCHEMA_VERSION, cache_load, cache_path, cache_store
from lemnatomic.exact import LemnatomicRecord, lemnatomic_exact, record_checksum
from lemnatomic.gaussint import format_gauss
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

    def test_coefficient_off_x4_with_matching_checksum(self, tmp_path):
        record, path = stored(tmp_path)

        def fill_x2(d):
            d["coefficients"]["coeffs"][2] = "1"
            d["checksum"] = record_checksum(record.beta, from_json_dict(d["coefficients"]))

        rewrite(path, fill_x2)
        assert cache_load(record.beta, tmp_path) is None

    def test_value_at_1_off_with_matching_checksum(self, tmp_path):
        record, path = stored(tmp_path)

        def bump_x4(d):
            d["coefficients"]["coeffs"][4] = format_gauss(record.coefficients[4] + 1)
            d["checksum"] = record_checksum(record.beta, from_json_dict(d["coefficients"]))

        rewrite(path, bump_x4)
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


# A cache file's full bytes: indent 2, sorted keys, trailing newline.  A change
# to them changes the files already on disk, so it must bump SCHEMA_VERSION.
EXACT_FILE = """{
  "beta": "-1+2i",
  "checksum": "ecfcace1540795b0f0c666480ef20a86803e9cadccdce90454074ee938812e94",
  "coefficients": {
    "coeffs": [
      "-1+2i",
      "0",
      "0",
      "0",
      "1"
    ]
  },
  "degree": 4,
  "method": "exact",
  "precision_bits": 0,
  "schema_version": 1
}
"""
BOTH_FILE = """{
  "beta": "-3",
  "checksum": "b4fd06d303e256e44d9c428f470e8717e1ab2e77b51310e8266973104afe27f2",
  "coefficients": {
    "coeffs": [
      "-3",
      "0",
      "0",
      "0",
      "6",
      "0",
      "0",
      "0",
      "1"
    ]
  },
  "degree": 8,
  "method": "both",
  "precision_bits": 256,
  "schema_version": 1
}
"""


class TestWireFormat:
    def test_exact_record_bytes(self, tmp_path):
        _, path = stored(tmp_path, "-1+2i")
        assert path.read_bytes() == EXACT_FILE.encode("ascii")

    def test_both_record_bytes(self, tmp_path):
        # the record lemnatomic -3 --method both stores at its default 256 bits
        poly = lemnatomic_exact(gi("-3")).coefficients
        record = LemnatomicRecord.build(gi("-3"), poly, "both", 256)
        assert cache_store(record, tmp_path) is True
        assert cache_path(tmp_path, record.beta).read_bytes() == BOTH_FILE.encode("ascii")
