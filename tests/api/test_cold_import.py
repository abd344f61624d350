"""Cold-start guard: scipy stays off every analysis-free path.

scipy is imported at the call sites of the fits that need it (the MLE
optimizers, the L-moment gamma terms, the portmanteau and runs tests),
and ``scipy.stats`` is not used at all.  Each check runs in a fresh
interpreter, so modules an earlier test imported cannot hide a
module-top scipy import.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _fresh(code):
    """Run ``code`` in a new interpreter with ``PYTHONPATH=src`` and
    return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    ["repro", "repro.cli", "repro.service.client", "repro.service.server"],
)
def test_import_loads_no_scipy(module):
    loaded = _fresh(
        f"""
        import json, sys
        import {module}
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
        """
    )
    assert loaded == []


def test_analysis_free_campaign_loads_no_scipy():
    result = _fresh(
        """
        import json, sys
        from repro.api import CampaignRequest, execute_request
        execution = execute_request(
            CampaignRequest(
                workload="tvca",
                runs=8,
                workload_kwargs={"estimator_dim": 8},
                platform_kwargs={"cache_kb": 4},
            )
        )
        print(json.dumps({
            "runs": execution.result.num_runs,
            "scipy": "scipy" in sys.modules,
        }))
        """
    )
    assert result == {"runs": 8, "scipy": False}


def test_banded_analyses_never_load_scipy_stats():
    loaded = _fresh(
        """
        import json, sys
        from repro.core import AnalysisConfig, AnalysisPipeline
        from repro.workloads.synthetic import cache_like_samples

        values = cache_like_samples(1200, seed=21)
        out = {}
        for method in ("block-maxima-gumbel", "gev", "pot-gpd", "auto"):
            config = AnalysisConfig(
                method=method, ci=0.95, bootstrap=50, check_convergence=False
            )
            AnalysisPipeline(config).run(values, label=method)
            out[method] = sorted(
                m for m in ("scipy.special", "scipy.optimize", "scipy.stats")
                if m in sys.modules
            )
        print(json.dumps(out))
        """
    )
    for method, modules in loaded.items():
        assert "scipy.stats" not in modules, method
    # The fits did reach their call-site imports: the guard is not
    # passing merely because no analysis ran.
    assert "scipy.special" in loaded["block-maxima-gumbel"]
    assert "scipy.optimize" in loaded["auto"]
