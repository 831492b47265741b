"""Per-rule positive/negative fixtures for repro.lint, analyzed in memory."""

import textwrap

import pytest

from repro.lint import SYNTAX_RULE, Severity, lint_source

PHY = "src/repro/phy/somemod.py"
DSP = "src/repro/dsp/somemod.py"
CORE = "src/repro/core/somemod.py"


def lint(code, path=CORE, **kwargs):
    return lint_source(textwrap.dedent(code), path=path, **kwargs)


def rules_of(findings):
    return [f.rule for f in findings]


class TestDeterminism:
    def test_time_time_flagged(self):
        findings = lint(
            """
            import time
            def stamp():
                return time.time()
            """,
            path=PHY,
        )
        assert rules_of(findings) == ["RFD101"]
        assert findings[0].severity == Severity.ERROR
        assert findings[0].line == 4

    def test_aliased_and_from_imports_resolved(self):
        findings = lint(
            """
            import time as _t
            from datetime import datetime
            a = _t.time()
            b = datetime.now()
            """,
            path=PHY,
        )
        assert rules_of(findings) == ["RFD101", "RFD101"]

    def test_timebase_not_flagged(self):
        assert lint(
            """
            def stamp(timebase, index):
                return timebase.seconds(index)
            """,
            path=PHY,
        ) == []

    def test_global_numpy_rng_flagged(self):
        findings = lint(
            """
            import numpy as np
            np.random.seed(0)
            x = np.random.normal(size=8)
            """,
            path=PHY,
        )
        assert rules_of(findings) == ["RFD102", "RFD102"]

    def test_stdlib_random_flagged(self):
        findings = lint(
            """
            import random
            x = random.random()
            """,
        )
        assert rules_of(findings) == ["RFD102"]

    def test_explicit_generator_allowed(self):
        assert lint(
            """
            import numpy as np
            def awgn(n, rng: np.random.Generator):
                rng2 = np.random.default_rng(7)
                return rng.normal(size=n)
            """,
            path=PHY,
        ) == []

    def test_perf_counter_outside_accounting_flagged(self):
        findings = lint(
            """
            import time
            t0 = time.perf_counter()
            """,
            path=PHY,
        )
        assert rules_of(findings) == ["RFD103"]

    @pytest.mark.parametrize("path", [
        "src/repro/core/accounting.py",
        "src/repro/core/analysis_stage.py",
        "src/repro/core/pipeline.py",
        "src/repro/obs/tracing.py",
    ])
    def test_perf_counter_allowed_in_accounting_modules(self, path):
        assert lint(
            """
            import time
            t0 = time.perf_counter()
            """,
            path=path,
        ) == []


class TestDtype:
    def test_complex128_dtype_flagged_in_phy(self):
        findings = lint(
            """
            import numpy as np
            buf = np.zeros(16, dtype=np.complex128)
            """,
            path=PHY,
        )
        assert rules_of(findings) == ["RFD201"]

    def test_astype_complex_flagged_in_dsp(self):
        findings = lint(
            """
            import numpy as np
            def widen(x):
                return x.astype(complex)
            """,
            path=DSP,
        )
        assert rules_of(findings) == ["RFD201"]

    def test_complex64_not_flagged(self):
        assert lint(
            """
            import numpy as np
            buf = np.zeros(16, dtype=np.complex64)
            """,
            path=PHY,
        ) == []

    def test_scope_excludes_core(self):
        assert lint(
            """
            import numpy as np
            buf = np.zeros(16, dtype=np.complex128)
            """,
            path=CORE,
        ) == []

    def test_default_complex_exp_flagged(self):
        findings = lint(
            """
            import numpy as np
            def carrier(phases):
                return np.exp(1j * phases)
            """,
            path=PHY,
        )
        assert rules_of(findings) == ["RFD202"]

    def test_exp_with_immediate_cast_allowed(self):
        assert lint(
            """
            import numpy as np
            def carrier(phases):
                return np.exp(1j * phases).astype(np.complex64)
            """,
            path=PHY,
        ) == []

    def test_real_exp_allowed(self):
        assert lint(
            """
            import numpy as np
            def envelope(t):
                return np.exp(-t)
            """,
            path=PHY,
        ) == []


class TestConcurrency:
    def test_capturing_lambda_submit_flagged(self):
        findings = lint(
            """
            def run(pool, tasks):
                results = []
                for task in tasks:
                    pool.submit(lambda: results.append(task))
            """,
        )
        assert rules_of(findings) == ["RFD301"]
        assert "results" in findings[0].message
        assert "task" in findings[0].message

    def test_plain_function_submit_allowed(self):
        assert lint(
            """
            def run(pool, tasks, decode):
                return [pool.submit(decode, task) for task in tasks]
            """,
        ) == []

    def test_closed_lambda_allowed(self):
        # a lambda whose every name is one of its own parameters is safe
        assert lint(
            """
            def run(pool):
                return pool.submit(lambda x=1: x + x)
            """,
        ) == []


class TestReliability:
    def test_silent_except_exception_flagged(self):
        findings = lint(
            """
            def decode(buf):
                try:
                    return buf.demod()
                except Exception:
                    pass
            """,
        )
        assert rules_of(findings) == ["RFD302"]
        assert "Exception" in findings[0].message

    def test_bare_except_and_tuple_flagged(self):
        findings = lint(
            """
            def a(buf):
                try:
                    buf.demod()
                except:
                    return
            def b(buf):
                try:
                    buf.demod()
                except (ValueError, BaseException):
                    ...
            """,
        )
        assert rules_of(findings) == ["RFD302", "RFD302"]

    def test_silent_continue_flagged(self):
        findings = lint(
            """
            def drain(bufs):
                for buf in bufs:
                    try:
                        buf.demod()
                    except Exception:
                        continue
            """,
        )
        assert rules_of(findings) == ["RFD302"]

    def test_handler_that_records_allowed(self):
        assert lint(
            """
            def decode(buf, errors):
                try:
                    return buf.demod()
                except Exception as exc:
                    errors.append(exc)
                    return None
            """,
        ) == []

    def test_narrow_silent_handler_allowed(self):
        # a deliberately ignored *specific* exception is fine
        assert lint(
            """
            def close(pool):
                try:
                    pool.shutdown()
                except OSError:
                    pass
            """,
        ) == []

    def test_outside_core_not_flagged(self):
        assert lint(
            """
            def decode(buf):
                try:
                    return buf.demod()
                except Exception:
                    pass
            """,
            path=PHY,
        ) == []


class TestApiContracts:
    def test_config_attribute_assignment_flagged(self):
        findings = lint(
            """
            from repro.core.config import MonitorConfig
            cfg = MonitorConfig()
            cfg.workers = 4
            """,
        )
        assert rules_of(findings) == ["RFD401"]

    def test_object_setattr_on_config_flagged(self):
        findings = lint(
            """
            def tweak(config: "MonitorConfig"):
                object.__setattr__(config, "workers", 4)
            """,
        )
        assert rules_of(findings) == ["RFD401"]

    def test_self_config_mutation_flagged(self):
        findings = lint(
            """
            class Monitor:
                def set_workers(self, n):
                    self.config.workers = n
            """,
        )
        assert rules_of(findings) == ["RFD401"]

    def test_dataclasses_replace_allowed(self):
        assert lint(
            """
            from dataclasses import replace
            from repro.core.config import MonitorConfig
            cfg = MonitorConfig()
            cfg2 = replace(cfg, workers=4)
            """,
        ) == []

    def test_computed_metric_name_flagged(self):
        findings = lint(
            """
            def count(obs, protocol):
                obs.counter("rfdump_" + protocol).inc()
            """,
        )
        assert rules_of(findings) == ["RFD402"]

    def test_literal_and_constant_metric_names_allowed(self):
        assert lint(
            """
            METRIC = "rfdump_packets_total"
            def count(obs):
                obs.counter("rfdump_samples_total").inc()
                obs.gauge(METRIC, help="x").set(1)
            """,
        ) == []

    def test_numpy_histogram_not_confused_with_registry(self):
        assert lint(
            """
            import numpy as np
            def hist(x, edges):
                counts, _ = np.histogram(x, edges)
                return counts
            """,
        ) == []

    def test_obs_package_itself_out_of_scope(self):
        assert lint(
            """
            class Observability:
                def counter(self, name, help=""):
                    return self.registry.counter(name, help=help)
            """,
            path="src/repro/obs/__init__.py",
        ) == []


class TestTypingHygiene:
    def test_implicit_optional_parameter_flagged(self):
        findings = lint(
            """
            def __init__(self, name: str = None):
                pass
            """,
        )
        assert rules_of(findings) == ["RFD501"]

    def test_implicit_optional_field_flagged(self):
        findings = lint(
            """
            from dataclasses import dataclass
            @dataclass
            class Result:
                noise_floor: float = None
            """,
        )
        assert rules_of(findings) == ["RFD501"]

    @pytest.mark.parametrize("annotation", [
        "Optional[str]", '"Optional[str]"', "Union[str, None]",
        "Any", "object",
    ])
    def test_none_admitting_annotations_allowed(self, annotation):
        assert lint(
            f"""
            from typing import Any, Optional, Union
            def f(name: {annotation} = None):
                pass
            """,
        ) == []

    def test_unannotated_default_allowed(self):
        assert lint(
            """
            def f(name=None):
                pass
            """,
        ) == []

    def test_kwonly_parameter_checked(self):
        findings = lint(
            """
            def f(*, window: int = None):
                pass
            """,
        )
        assert rules_of(findings) == ["RFD501"]


class TestSuppression:
    def test_noqa_suppresses_exactly_one_finding(self):
        findings = lint(
            """
            import time
            a = time.time()  # rfdump: noqa[RFD101]
            b = time.time()
            """,
            path=PHY,
        )
        assert rules_of(findings) == ["RFD101"]
        assert findings[0].line == 4

    def test_bare_noqa_suppresses_all_rules_on_line(self):
        assert lint(
            """
            import time
            a = time.time()  # rfdump: noqa
            """,
            path=PHY,
        ) == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        findings = lint(
            """
            import time
            a = time.time()  # rfdump: noqa[RFD501]
            """,
            path=PHY,
        )
        assert rules_of(findings) == ["RFD101"]


class TestEngineBasics:
    def test_syntax_error_reported_as_finding(self):
        findings = lint("def broken(:\n    pass\n")
        assert rules_of(findings) == [SYNTAX_RULE]
        assert findings[0].severity == Severity.ERROR

    def test_select_restricts_rules(self):
        findings = lint(
            """
            import time
            def f(name: str = None):
                return time.time()
            """,
            path=PHY,
            select=["RFD501"],
        )
        assert rules_of(findings) == ["RFD501"]

    def test_ignore_drops_rules(self):
        findings = lint(
            """
            import time
            def f(name: str = None):
                return time.time()
            """,
            path=PHY,
            ignore=["RFD501"],
        )
        assert rules_of(findings) == ["RFD101"]
