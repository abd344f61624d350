"""repro — MBPTA on time-randomized platforms (DATE 2017 reproduction).

A complete reimplementation of the system behind Fernandez et al.,
"Probabilistic Timing Analysis on Time-Randomized Platforms for the
Space Domain" (DATE 2017):

* :mod:`repro.platform` — trace-driven timing model of the MBPTA-
  compliant LEON3 (time-randomized caches/TLBs, analysis-mode FPU,
  shared bus, DRAM) and its deterministic baseline,
* :mod:`repro.programs` — program DSL, linker and trace compiler,
* :mod:`repro.workloads` — the TVCA case study (plant, controller,
  tasks, scheduler) plus ablation kernels and synthetic generators,
* :mod:`repro.harness` — the measurement protocol (flush/reset/reseed
  per run) and sample containers,
* :mod:`repro.api` — the unified measurement facade: the
  :class:`~repro.api.workload.Workload` protocol, the sharded
  :class:`~repro.api.runner.CampaignRunner`, persistent campaign
  artifacts, and string-keyed workload/platform registries,
* :mod:`repro.core` — the MBPTA analysis itself: the staged
  :class:`~repro.core.analysis.AnalysisPipeline` (i.i.d. testing, a
  string-keyed tail-estimator registry, fit diagnostics, vectorized
  bootstrap confidence bands), per-path pWCET curves/envelopes, and
  the industrial MBTA baseline,
* :mod:`repro.viz` — text/CSV renderings of the paper's figures.

Quickstart::

    from repro.api import CampaignRequest, CampaignRunner
    from repro.core import AnalysisPipeline

    request = CampaignRequest(workload="tvca", platform="rand", runs=300, shards=4)
    result = CampaignRunner.run_request(request)
    analysis = AnalysisPipeline().run(result.samples)
    print(analysis.report())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
