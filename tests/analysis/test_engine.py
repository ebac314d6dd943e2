"""Engine-level behaviour: selection, suppression, and the simulation gate."""

from __future__ import annotations

import pytest

from repro.analysis import RULES, analyze_program, check_program
from repro.errors import AnalysisError
from repro.trace.program import Phase
from repro.trace.records import MemOp

from .conftest import PAGE, access, kernel, program, setup_phase


def codes(diagnostics):
    return {d.code for d in diagnostics}


class TestBrokenFixture:
    def test_fires_every_rule_code(self, broken_program):
        assert codes(analyze_program(broken_program)) == set(RULES)

    def test_check_program_raises_with_diagnostics(self, broken_program):
        with pytest.raises(AnalysisError) as excinfo:
            check_program(broken_program)
        assert "fails static analysis" in str(excinfo.value)
        assert codes(excinfo.value.diagnostics) == set(RULES)


class TestSelection:
    def test_select_prefix(self, broken_program):
        hygiene = codes(analyze_program(broken_program, select=["GPS1"]))
        assert hygiene == {"GPS101", "GPS102", "GPS103", "GPS104"}

    def test_select_exact_codes_comma_separated(self, broken_program):
        found = codes(analyze_program(broken_program, select=["GPS001,GPS005"]))
        assert found == {"GPS001", "GPS005"}

    def test_ignore_drops_after_select(self, broken_program):
        found = codes(
            analyze_program(broken_program, select=["GPS1"], ignore=["GPS102"])
        )
        assert found == {"GPS101", "GPS103", "GPS104"}

    def test_metadata_suppression(self):
        phases = [
            Phase("it0", (
                kernel("w", 0, access(length=PAGE, op=MemOp.WRITE)),
            ), iteration=0),
        ]
        noisy = program(phases, num_gpus=2)
        quiet = program(
            phases,
            num_gpus=2,
            metadata={"analysis_ignore": "GPS102,GPS103"},
        )
        assert {"GPS102", "GPS103"} <= codes(analyze_program(noisy))
        assert codes(analyze_program(quiet)) & {"GPS102", "GPS103"} == set()

    def test_explicit_select_overrides_metadata_ignore(self):
        """metadata_ignore composes with --select like any other ignore list."""
        p = program(
            [Phase("it0", (
                kernel("w", 0, access(length=PAGE, op=MemOp.WRITE)),
            ), iteration=0)],
            metadata={"analysis_ignore": "GPS103"},
        )
        # Still suppressed: ignore always wins over select.
        assert "GPS103" not in codes(analyze_program(p, select=["GPS103"]))

    @pytest.mark.parametrize(
        "kwargs, token",
        [
            ({"select": ["GPS999"]}, "GPS999"),
            ({"select": ["GPS1,GPS0O1"]}, "GPS0O1"),
            ({"ignore": ["gps1"]}, "gps1"),
        ],
        ids=["select-typo", "select-typo-in-list", "ignore-lowercase"],
    )
    def test_unknown_select_or_ignore_token_is_rejected(
        self, broken_program, kwargs, token
    ):
        """A typo must not silently turn the analyzer off (or on)."""
        with pytest.raises(ValueError, match=repr(token)):
            analyze_program(broken_program, **kwargs)

    def test_metadata_ignore_stays_lenient(self):
        p = program(
            [Phase("it0", (
                kernel("w", 0, access(length=PAGE, op=MemOp.WRITE)),
            ), iteration=0)],
            metadata={"analysis_ignore": "GPS999"},
        )
        assert "GPS103" in codes(analyze_program(p))


class TestCheckProgram:
    def test_clean_program_returns_diagnostics(self):
        p = program([
            setup_phase(),
            Phase("it0", (
                kernel("r", 0, access(length=PAGE, op=MemOp.READ)),
                kernel("r1", 1, access(offset=PAGE, length=PAGE, op=MemOp.READ)),
            ), iteration=0),
        ])
        diagnostics = check_program(p)
        assert all(d.severity != "error" for d in diagnostics)

    def test_warnings_do_not_raise(self):
        p = program(
            [setup_phase(), Phase("it0", (
                kernel("r", 0, access(length=PAGE)),
                kernel("r1", 1, access(offset=PAGE, length=PAGE)),
            ), iteration=0)],
            buffers=(("buf", 4 * PAGE), ("ghost", PAGE)),
        )
        diagnostics = check_program(p)
        assert "GPS101" in codes(diagnostics)


class TestHarnessGate:
    class _Broken:
        """Minimal stand-in workload whose trace has a write-write race."""

        def build(self, num_gpus, scale=1.0, iterations=5):
            return program(
                [
                    setup_phase(),
                    Phase("it0", (
                        kernel("a", 0, access(offset=0, length=256, op=MemOp.WRITE)),
                        kernel("b", 1, access(offset=128, length=256, op=MemOp.WRITE)),
                    ), iteration=0),
                ],
                num_gpus=num_gpus,
                name="brokenw",
            )

    @pytest.fixture
    def broken_workload(self, monkeypatch):
        import repro.workloads.registry as registry
        from repro.harness.runner import clear_run_cache

        monkeypatch.setitem(registry.WORKLOADS, "brokenw", self._Broken())
        clear_run_cache()
        yield
        clear_run_cache()

    def test_runner_refuses_broken_trace(self, broken_workload):
        from repro.harness.runner import run_simulation

        with pytest.raises(AnalysisError, match="GPS001"):
            run_simulation("brokenw", "gps", 2, scale=0.1, iterations=2)

    def test_no_analyze_env_bypasses_gate(self, broken_workload, monkeypatch):
        from repro.harness.runner import run_simulation

        monkeypatch.setenv("REPRO_NO_ANALYZE", "1")
        result = run_simulation("brokenw", "gps", 2, scale=0.1, iterations=2)
        assert result.total_time > 0
