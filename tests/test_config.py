import configparser

import pytest

from hybridseg.config import (
    canonical_text,
    config_hash,
    parse_float_list,
    parse_int_list,
    resolve,
    write_sidecar,
)
from hybridseg.errors import ConfigError


class TestResolve:
    def test_defaults_fill_optional_keys(self):
        cfg = resolve("toy", None, {"out": "runs/toy"})
        assert cfg["out"] == "runs/toy"
        assert cfg["beta"] == 0.2
        assert cfg["seeds"] == "0,1,2,3,4"
        assert cfg["steps"] == 300

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError, match="out"):
            resolve("toy", None, {})

    def test_empty_string_counts_as_missing(self):
        with pytest.raises(ConfigError):
            resolve("toy", None, {"out": ""})

    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[toy]\nsteps = 50\nbeta = 0.7\n")
        cfg = resolve("toy", str(ini), {"out": "x", "beta": "0.9"})
        assert cfg["steps"] == 50        # file beats default
        assert cfg["beta"] == 0.9        # flag beats file
        assert cfg["lr"] == 0.01         # untouched default

    def test_none_overrides_are_skipped(self):
        cfg = resolve("toy", None, {"out": "x", "steps": None})
        assert cfg["steps"] == 300

    def test_unknown_file_key_rejected(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[toy]\nstepz = 50\n")
        with pytest.raises(ConfigError, match="stepz"):
            resolve("toy", str(ini), {"out": "x"})

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            resolve("toy", None, {"out": "x", "stepz": 1})

    def test_missing_config_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            resolve("toy", "/nonexistent/run.ini", {"out": "x"})

    @pytest.mark.parametrize("text", [b"[toy]\nout = run\xff\n", b"out = run\n",
                                      b"[toy]\nout = a\nout = b\n"],
                             ids=["not-utf8", "no-section-header", "duplicate-key"])
    def test_unreadable_config_file_rejected(self, tmp_path, text):
        ini = tmp_path / "run.ini"
        ini.write_bytes(text)
        with pytest.raises(ConfigError):
            resolve("toy", str(ini), {})

    @pytest.mark.parametrize("value", ["50%", "d%1", "%(out)s", "%%"])
    def test_percent_is_literal(self, tmp_path, value):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[toy]\nout = {value}\n")
        assert resolve("toy", str(ini), {})["out"] == value

    def test_other_sections_are_ignored(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[toy]\nsteps = 9\n[synth]\nseed = 3\n")
        cfg = resolve("toy", str(ini), {"out": "x"})
        assert cfg["steps"] == 9

    @pytest.mark.parametrize("raw,value", [
        ("1", True), ("true", True), ("Yes", True), ("on", True),
        ("0", False), ("False", False), ("no", False), ("off", False),
    ])
    def test_bool_spellings(self, raw, value):
        cfg = resolve("synth", None, {"out": "x", "force": raw})
        assert cfg["force"] is value

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            resolve("synth", None, {"out": "x", "force": "maybe"})

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError):
            resolve("synth", None, {"out": "x", "seed": "ten"})


class TestCanonicalForm:
    def test_text_is_sorted_and_stable(self):
        a = canonical_text("toy", {"b": 1, "a": 2})
        b = canonical_text("toy", {"a": 2, "b": 1})
        assert a == b
        assert a.index("a = 2") < a.index("b = 1")

    def test_hash_tracks_content_only(self):
        base = {"out": "x", "steps": 300}
        assert config_hash("toy", dict(base)) == config_hash("toy", dict(reversed(base.items())))
        changed = dict(base, steps=301)
        assert config_hash("toy", base) != config_hash("toy", changed)
        assert len(config_hash("toy", base)) == 64

    def test_sidecar_reruns_to_the_same_configuration(self, tmp_path):
        resolved = resolve("toy", None, {"out": str(tmp_path / "run"), "steps": "17"})
        sidecar = write_sidecar(tmp_path, "toy", resolved)
        again = resolve("toy", str(sidecar), {})
        assert again == resolved
        assert config_hash("toy", again) == config_hash("toy", resolved)

    def test_sidecar_bytes_are_reproducible(self, tmp_path):
        resolved = resolve("toy", None, {"out": "runs/toy"})
        p1 = write_sidecar(tmp_path / "a", "toy", resolved)
        p2 = write_sidecar(tmp_path / "b", "toy", resolved)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sidecar_records_its_own_hash(self, tmp_path):
        resolved = resolve("toy", None, {"out": "runs/toy"})
        sidecar = write_sidecar(tmp_path, "toy", resolved)
        parser = configparser.ConfigParser()
        parser.read(sidecar)
        assert parser["provenance"]["config_hash"] == config_hash("toy", resolved)


class TestListParsing:
    def test_int_list(self):
        assert parse_int_list("16,32,32") == (16, 32, 32)
        assert parse_int_list(" 5 , 50 ") == (5, 50)
        assert parse_int_list("") == ()

    def test_float_list(self):
        assert parse_float_list("5,12.5,50") == (5.0, 12.5, 50.0)

    def test_rejects_junk(self):
        with pytest.raises(ConfigError):
            parse_int_list("16,thirty")
        with pytest.raises(ConfigError):
            parse_float_list("1.0,x")
