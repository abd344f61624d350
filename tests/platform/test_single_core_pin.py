"""Single-core cycle counts are regression-pinned across refactors.

The co-scheduled execution engine (CoreStepper + Platform.run_concurrent)
replaced the monolithic ``Core.execute`` loop; the contract is that
single-core campaigns stay **bit-identical** to the pre-refactor engine.
The expected values below were captured from the seed implementation
(before the stepper refactor) — if any of them moves, the platform's
timing semantics changed and every published campaign is invalidated.
"""

import pytest

from repro.api import (
    CampaignConfig,
    CampaignRequest,
    CampaignRunner,
    create_platform,
    create_scenario,
    create_workload,
)
from repro.platform.batch import numpy_available

#: (workload, platform) -> exact per-run cycles for runs=5, base_seed=20177,
#: num_cores=1, cache_kb=4 (tvca: estimator_dim=12, aero_window=16).
PINNED = {
    ("matmul", "rand"): [8593.0, 8593.0, 8593.0, 8593.0, 8593.0],
    ("matmul", "det"): [8593.0, 8593.0, 8593.0, 8593.0, 8593.0],
    ("fir", "rand"): [30084.0, 30084.0, 30084.0, 30084.0, 30084.0],
    ("table-walk", "rand"): [4455.0, 4591.0, 4591.0, 4625.0, 4523.0],
    ("tvca", "rand"): [91811.0, 91977.0, 94097.0, 93607.0, 92061.0],
    ("tvca", "det"): [91791.0, 91957.0, 91881.0, 92507.0, 92050.0],
}


@pytest.mark.parametrize(
    "workload,platform", sorted(PINNED), ids=lambda value: str(value)
)
def test_single_core_cycles_bit_identical_to_seed_engine(workload, platform):
    kwargs = (
        {"estimator_dim": 12, "aero_window": 16} if workload == "tvca" else {}
    )
    result = CampaignRunner.run_request(
        CampaignRequest(
            workload=workload,
            platform=platform,
            runs=5,
            base_seed=20177,
            workload_kwargs=kwargs,
            platform_kwargs={"num_cores": 1, "cache_kb": 4},
        )
    )
    assert [record.cycles for record in result.run_details] == PINNED[
        (workload, platform)
    ]


#: (workload, platform, scenario) -> exact analysis-core cycles for the
#: co-scheduled path: runs=5, base_seed=20177, num_cores=4, cache_kb=4.
#: Captured from the scalar interleave before the heap scheduler and the
#: vectorized concurrent engine landed — both must reproduce them bit
#: for bit, on every backend.
PINNED_CONCURRENT = {
    ("table-walk", "rand", "isolation"):
        [4455.0, 4591.0, 4591.0, 4625.0, 4523.0],
    ("table-walk", "rand", "opponent-memory-hammer"):
        [10072.0, 10063.0, 10353.0, 10343.0, 10066.0],
    ("table-walk", "rand", "opponent-cpu"):
        [4453.0, 4589.0, 4589.0, 4623.0, 4521.0],
    ("table-walk", "rand", "full-rand"):
        [5614.0, 5872.0, 5571.0, 5729.0, 5530.0],
    ("table-walk", "det", "isolation"):
        [4387.0, 4625.0, 4557.0, 4557.0, 4489.0],
    ("table-walk", "det", "opponent-memory-hammer"):
        [10097.0, 10311.0, 10341.0, 10596.0, 10229.0],
    ("table-walk", "det", "opponent-cpu"):
        [4385.0, 4623.0, 4555.0, 4555.0, 4487.0],
    ("table-walk", "det", "full-rand"):
        [5559.0, 5903.0, 5573.0, 5626.0, 5504.0],
}


@pytest.mark.parametrize(
    "workload,platform,scenario",
    sorted(PINNED_CONCURRENT),
    ids=lambda value: str(value),
)
def test_concurrent_cycles_bit_identical_to_seed_engine(
    workload, platform, scenario
):
    expected = PINNED_CONCURRENT[(workload, platform, scenario)]
    backends = ["scalar"]
    if numpy_available():
        backends.append("batch")
    for backend in backends:
        soc = create_platform(platform, num_cores=4, cache_kb=4)
        runner = CampaignRunner(
            CampaignConfig(runs=5, base_seed=20177), backend=backend
        )
        result = runner.run(
            create_scenario(scenario, create_workload(workload)), soc
        )
        cycles = [record.cycles for record in result.run_details]
        assert cycles == expected, backend
