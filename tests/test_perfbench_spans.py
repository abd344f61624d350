"""The traced benchmark run wraps program entry points by name.

``perfbench/spans.py`` looks each wrapped attribute up in its owner's
``__dict__``, so renaming, deleting or inheriting one raises
``KeyError`` on entering the instrumentation.  Loading the module by
file path here (it is a script directory, not a package) makes that a
tier-1 failure instead of one only the traced benchmark job sees.
"""

import importlib.util
import sys
from pathlib import Path

from repro.api import CampaignConfig, CampaignRunner, create_workload
from repro.api import backend, runner
from repro.platform.soc import leon3_rand


def load_spans(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_instrumentation_wraps_and_restores_every_entry_point(monkeypatch):
    spans = load_spans(monkeypatch)
    original = backend.execute_batch_indices
    recorder = spans.SpanRecorder()
    with spans.Instrumentation(recorder):
        assert backend.execute_batch_indices is not original
        assert runner.execute_batch_indices is backend.execute_batch_indices
        CampaignRunner(CampaignConfig(runs=2), backend="scalar").run(
            create_workload("matmul", dim=3), leon3_rand(num_cores=1)
        )
    assert backend.execute_batch_indices is original
    assert runner.execute_batch_indices is original
    names = {span.name for span in recorder.spans}
    assert {
        "backend.execute_batch_indices",
        "workload.prepare",
        "workload.plan_batch",
        "workload.finalize",
        "platform.reset",
        "scalar.execute",
    } <= names
    assert recorder.scalar_runs == 2
