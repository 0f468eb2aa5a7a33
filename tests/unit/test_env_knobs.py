"""Unit tests for repro.utils.env: validated REPRO_* knob parsing.

The contract under test: recognized spellings parse, unset means the
documented default, and anything else raises one clear ValidationError
naming the knob — never a raw ValueError traceback and never a silently
wrong transport or kernel.
"""

import pytest

from repro.propagation import native
from repro.utils.env import env_positive_int, env_switch
from repro.utils.validation import ValidationError


class TestEnvSwitch:
    def test_on_off_and_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SWITCH", "on")
        assert env_switch("REPRO_TEST_SWITCH", on=("", "on"), off=("off",))
        monkeypatch.setenv("REPRO_TEST_SWITCH", "OFF")
        assert not env_switch("REPRO_TEST_SWITCH", on=("", "on"), off=("off",))
        monkeypatch.delenv("REPRO_TEST_SWITCH")
        assert env_switch("REPRO_TEST_SWITCH", on=("", "on"), off=("off",))

    def test_whitespace_and_case_are_forgiven(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SWITCH", "  On ")
        assert env_switch("REPRO_TEST_SWITCH", on=("", "on"), off=("off",))

    def test_unrecognized_value_raises_with_accepted_spellings(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_SWITCH", "maybe")
        with pytest.raises(ValidationError) as excinfo:
            env_switch("REPRO_TEST_SWITCH", on=("", "on"), off=("off",))
        message = str(excinfo.value)
        assert "REPRO_TEST_SWITCH" in message
        assert "'maybe'" in message
        assert "on" in message and "off" in message


class TestEnvPositiveInt:
    def test_unset_and_empty_mean_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_BYTES", raising=False)
        assert env_positive_int("REPRO_TEST_BYTES", 77) == 77
        monkeypatch.setenv("REPRO_TEST_BYTES", "  ")
        assert env_positive_int("REPRO_TEST_BYTES", 77) == 77

    def test_valid_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_BYTES", "4096")
        assert env_positive_int("REPRO_TEST_BYTES", 77) == 4096

    @pytest.mark.parametrize("bad", ["abc", "1.5", "-3", "0"])
    def test_invalid_values_raise(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_TEST_BYTES", bad)
        with pytest.raises(ValidationError, match="REPRO_TEST_BYTES"):
            env_positive_int("REPRO_TEST_BYTES", 77)


class TestNativeKnob:
    def test_unrecognized_repro_native_raises(self, monkeypatch):
        monkeypatch.setattr(native, "_FORCED_FALLBACK", None)
        monkeypatch.setenv("REPRO_NATIVE", "2")
        with pytest.raises(ValidationError, match="REPRO_NATIVE"):
            native.use_compiled()

    def test_recognized_values_select_a_path(self, monkeypatch):
        monkeypatch.setattr(native, "_FORCED_FALLBACK", None)
        for value in ("0", "off", "fallback"):
            monkeypatch.setenv("REPRO_NATIVE", value)
            assert not native.use_compiled()
            assert native.kernel_provenance() == "numpy"
        monkeypatch.setenv("REPRO_NATIVE", "1")
        assert native.use_compiled() == native.HAVE_COMPILED

    def test_attribute_override_bypasses_environment(self, monkeypatch):
        # Tests pin native._FORCED_FALLBACK directly; the env must not be
        # consulted (even an invalid value) while the override is set.
        monkeypatch.setenv("REPRO_NATIVE", "2")
        monkeypatch.setattr(native, "_FORCED_FALLBACK", True)
        assert not native.use_compiled()
