"""Tests for the FPU latency model (the paper's analysis-mode change)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.fpu import (
    FpOp,
    Fpu,
    FpuConfig,
    FpuMode,
    operand_class_of,
)


class TestAnalysisMode:
    def test_div_is_fixed_at_worst(self):
        fpu = Fpu(FpuConfig(mode=FpuMode.ANALYSIS))
        latencies = {fpu.latency(FpOp.DIV, oc) for oc in (0.0, 0.3, 0.7, 1.0)}
        assert latencies == {fpu.config.div_max_latency}

    def test_sqrt_is_fixed_at_worst(self):
        fpu = Fpu(FpuConfig(mode=FpuMode.ANALYSIS))
        latencies = {fpu.latency(FpOp.SQRT, oc) for oc in (0.0, 0.5, 1.0)}
        assert latencies == {fpu.config.sqrt_max_latency}


class TestOperationMode:
    def test_div_latency_scales_with_operand_class(self):
        fpu = Fpu(FpuConfig(mode=FpuMode.OPERATION))
        lo = fpu.latency(FpOp.DIV, 0.0)
        hi = fpu.latency(FpOp.DIV, 1.0)
        assert lo == fpu.config.div_min_latency
        assert hi == fpu.config.div_max_latency
        assert lo < hi

    def test_operand_class_clamped(self):
        fpu = Fpu(FpuConfig(mode=FpuMode.OPERATION))
        assert fpu.latency(FpOp.DIV, -5.0) == fpu.config.div_min_latency
        assert fpu.latency(FpOp.DIV, 7.0) == fpu.config.div_max_latency

    @pytest.mark.parametrize(
        "op, worst",
        [(FpOp.DIV, "div_max_latency"), (FpOp.SQRT, "sqrt_max_latency")],
    )
    def test_nan_operand_class_is_worst_case(self, op, worst):
        """A NaN class charges the worst case (as operand_class_of does
        for non-finite operands) instead of failing mid-run."""
        fpu = Fpu(FpuConfig(mode=FpuMode.OPERATION))
        assert fpu.latency(op, float("nan")) == getattr(fpu.config, worst)
        assert fpu.latency(op, float("inf")) == getattr(fpu.config, worst)
        assert fpu.stats.ops == 2
        assert fpu.stats.total_cycles == 2 * getattr(fpu.config, worst)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_analysis_upper_bounds_operation(self, oc):
        """The paper's property: analysis-mode latency upper-bounds every
        operation-mode latency."""
        op_fpu = Fpu(FpuConfig(mode=FpuMode.OPERATION))
        an_fpu = Fpu(FpuConfig(mode=FpuMode.ANALYSIS))
        for op in (FpOp.DIV, FpOp.SQRT):
            assert op_fpu.latency(op, oc) <= an_fpu.latency(op, oc)


class TestFixedOps:
    def test_fixed_latencies_mode_independent(self):
        for op in (FpOp.ADD, FpOp.SUB, FpOp.MUL, FpOp.CONV, FpOp.CMP):
            a = Fpu(FpuConfig(mode=FpuMode.ANALYSIS)).latency(op)
            b = Fpu(FpuConfig(mode=FpuMode.OPERATION)).latency(op)
            assert a == b

    def test_worst_case_latency(self):
        fpu = Fpu(FpuConfig())
        assert fpu.worst_case_latency(FpOp.DIV) == fpu.config.div_max_latency
        assert fpu.worst_case_latency(FpOp.ADD) == fpu.config.fixed_latencies[FpOp.ADD]


class TestConfigValidation:
    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            FpuConfig(div_min_latency=30, div_max_latency=20)

    def test_rejects_fixed_latency_for_div(self):
        with pytest.raises(ValueError):
            FpuConfig(fixed_latencies={FpOp.DIV: 10})


class TestStats:
    def test_counters(self):
        fpu = Fpu(FpuConfig())
        fpu.latency(FpOp.DIV)
        fpu.latency(FpOp.SQRT)
        fpu.latency(FpOp.ADD)
        assert fpu.stats.ops == 3
        assert fpu.stats.div_ops == 1
        assert fpu.stats.sqrt_ops == 1
        assert fpu.stats.total_cycles > 0
        fpu.reset_stats()
        assert fpu.stats.ops == 0


class TestOperandClassOf:
    def test_zero_divisor_is_worst(self):
        assert operand_class_of(1.0, 0.0) == 1.0

    def test_power_of_two_quotient_is_easy(self):
        assert operand_class_of(8.0, 2.0) < 0.2

    def test_irrational_quotient_is_hard(self):
        assert operand_class_of(1.0, 3.0) > 0.8

    def test_zero_dividend(self):
        assert operand_class_of(0.0, 5.0) == 0.0

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_always_in_unit_interval(self, a, b):
        assert 0.0 <= operand_class_of(a, b) <= 1.0
