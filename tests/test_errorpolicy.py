"""Unit tests for the error-policy primitives (repro.core.errorpolicy)."""

import pytest

from repro.core.errorpolicy import (
    ERROR_POLICIES,
    CircuitBreaker,
    ErrorRecord,
    validate_error_policy,
)
from repro.errors import (
    DecoderCrashError,
    RFDumpError,
    SampleIntegrityError,
    StreamGapError,
)


class TestPolicyVocabulary:
    @pytest.mark.parametrize("policy", ERROR_POLICIES)
    def test_known_policies_pass_through(self, policy):
        assert validate_error_policy(policy) == policy

    @pytest.mark.parametrize("policy", ("ignore", "RAISE", "", 0))
    def test_unknown_policies_rejected(self, policy):
        with pytest.raises(ValueError):
            validate_error_policy(policy)


class TestErrorRecord:
    def test_from_exception_captures_type_and_message(self):
        record = ErrorRecord.from_exception(
            stage="analysis", component="wifi",
            exc=RuntimeError("worker died"), action="fallback",
            start_sample=10, end_sample=20,
        )
        assert record.error == "RuntimeError"
        assert record.message == "worker died"
        assert record.action == "fallback"
        assert (record.start_sample, record.end_sample) == (10, 20)


class TestTypedErrors:
    def test_stream_gap_error_is_value_error(self):
        exc = StreamGapError("gap", expected_sample=100, actual_sample=350)
        assert isinstance(exc, RFDumpError)
        assert isinstance(exc, ValueError)
        assert exc.gap_samples == 250

    def test_gap_samples_unknown_without_positions(self):
        assert StreamGapError("gap").gap_samples is None

    def test_integrity_and_decoder_errors_carry_context(self):
        assert SampleIntegrityError("bad", bad_samples=7).bad_samples == 7
        assert DecoderCrashError("dead", protocol="wifi").protocol == "wifi"


class TestCircuitBreaker:
    def test_trips_on_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        assert breaker.record_failure("det") is False
        assert breaker.record_failure("det") is False
        assert breaker.record_failure("det") is True  # the tripping one
        assert breaker.is_open("det")
        assert breaker.open_components == ("det",)
        # further failures don't re-trip
        assert breaker.record_failure("det") is False

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("det")
        breaker.record_success("det")
        breaker.record_failure("det")
        assert not breaker.is_open("det")

    def test_components_tracked_independently(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("a")
        assert breaker.is_open("a")
        assert not breaker.is_open("b")

    def test_reset_one_and_all(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("a")
        breaker.record_failure("b")
        breaker.reset("a")
        assert breaker.open_components == ("b",)
        breaker.reset()
        assert breaker.open_components == ()

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
