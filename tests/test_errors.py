"""The structured error taxonomy: stable codes, builtin-compat bases."""

import pytest

from repro.errors import (
    ERROR_CODES,
    ExecutionError,
    GroupingBudgetExceeded,
    InjectedFault,
    InputDtypeError,
    InputError,
    InputMissingError,
    InputShapeError,
    KernelNativeError,
    NoValidGroupingError,
    ReproError,
    ScheduleFormatError,
    ScheduleStaleError,
    SchedulingError,
    TileExecutionError,
    error_code,
    is_retryable,
)


class TestTaxonomy:
    def test_codes_are_stable(self):
        expected = {
            "SCHED_BUDGET": GroupingBudgetExceeded,
            "SCHED_INVALID": NoValidGroupingError,
            "INPUT_MISSING": InputMissingError,
            "INPUT_SHAPE": InputShapeError,
            "INPUT_DTYPE": InputDtypeError,
            "TILE_FAIL": TileExecutionError,
            "SCHEDULE_FORMAT": ScheduleFormatError,
            "SCHEDULE_STALE": ScheduleStaleError,
            "FAULT_INJECTED": InjectedFault,
            "KERNEL_NATIVE_FAIL": KernelNativeError,
        }
        for code, cls in expected.items():
            assert cls.code == code
            assert ERROR_CODES[code] is cls

    def test_native_failure_is_deterministic_and_carries_a_reason(self):
        # no compiler now means no compiler on the retry: never retried
        exc = KernelNativeError("no g++ on PATH", reason="no-compiler")
        assert exc.reason == "no-compiler"
        assert "[KERNEL_NATIVE_FAIL]" in str(exc)
        assert not is_retryable(exc)

    def test_builtin_compat_bases(self):
        # Callers written against the old bare exceptions keep working.
        assert issubclass(InputMissingError, KeyError)
        assert issubclass(InputShapeError, ValueError)
        assert issubclass(InputDtypeError, ValueError)
        assert issubclass(GroupingBudgetExceeded, RuntimeError)
        assert issubclass(NoValidGroupingError, RuntimeError)
        assert issubclass(TileExecutionError, RuntimeError)
        assert issubclass(ScheduleStaleError, ValueError)
        assert issubclass(ScheduleFormatError, ValueError)

    def test_everything_is_repro_error(self):
        for cls in ERROR_CODES.values():
            assert issubclass(cls, ReproError)

    def test_str_includes_code_and_context(self):
        exc = InputShapeError("bad shape", image="img", actual=(1,))
        text = str(exc)
        assert "[INPUT_SHAPE]" in text
        assert "bad shape" in text
        assert "image='img'" in text

    def test_keyerror_subclass_str_not_reprd(self):
        # Bare KeyError str() would wrap the message in quotes.
        exc = InputMissingError("missing input image 'img'")
        assert str(exc).startswith("[INPUT_MISSING] missing input")

    def test_context_mapping(self):
        exc = SchedulingError("x", pipeline="p", extra=3)
        assert exc.context == {"pipeline": "p", "extra": 3}

    def test_tile_error_carries_coordinates_and_cause(self):
        cause = ZeroDivisionError("boom")
        exc = TileExecutionError(
            "tile died", group_index=2, tile_index=7,
            tile_origin=(0, 64), cause=cause,
        )
        assert exc.group_index == 2
        assert exc.tile_index == 7
        assert exc.tile_origin == (0, 64)
        assert exc.cause is cause
        assert exc.__cause__ is cause


class TestErrorCode:
    def test_structured(self):
        assert error_code(InputShapeError("s")) == "INPUT_SHAPE"

    def test_unstructured(self):
        assert error_code(ValueError("v")) == "UNSTRUCTURED:ValueError"

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            raise TileExecutionError("t", group_index=0, tile_index=0)
