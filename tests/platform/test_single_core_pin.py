"""Single-core cycle counts are regression-pinned across refactors.

The co-scheduled execution engine (CoreStepper + Platform.run_concurrent)
replaced the monolithic ``Core.execute`` loop; the contract is that
single-core campaigns stay **bit-identical** to the pre-refactor engine.
The expected values below were captured from the seed implementation
(before the stepper refactor) — if any of them moves, the platform's
timing semantics changed and every published campaign is invalidated.
"""

import hashlib
import json

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


#: Same campaigns -> sha256 of the canonical JSON of their full run
#: records (path, seeds and metadata, e.g. TVCA's ``input_profile``,
#: ``instructions``, ``deadlines_met``, ``max_response_cycles``).
#: Captured from the scalar backend while TVCA still had its own job loop
#: next to the plan path; every backend must reproduce them.
PINNED_RECORDS = {
    ("fir", "rand"):
        "7bc40a9ef503a631b2e3ee6ed6593767a8fdc96f8e072781227246b36cf53746",
    ("matmul", "det"):
        "512f5ddfb635d347819d5cdee4080aaad95b4029f80f4a9c033f28e6cf7deaab",
    ("matmul", "rand"):
        "512f5ddfb635d347819d5cdee4080aaad95b4029f80f4a9c033f28e6cf7deaab",
    ("table-walk", "rand"):
        "a9d32d5638e830be3aaba4706280f747286da185a418d20931942ceee12fb690",
    ("tvca", "det"):
        "3ccea7c79929ba14f0ff8b67f03f12a126d534fa3bf81c8c140b5a975f5f9e7c",
    ("tvca", "rand"):
        "81cf26b0a9258b712b4d5c8f76c4d627ea707e32d757f5dda431672317e54168",
}


def records_digest(result):
    payload = [record.to_dict() for record in result.run_details]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def backends():
    return ["scalar", "auto"] + (["batch"] if numpy_available() else [])


@pytest.mark.parametrize(
    "workload,platform", sorted(PINNED), ids=lambda value: str(value)
)
def test_single_core_cycles_bit_identical_to_seed_engine(workload, platform):
    kwargs = (
        {"estimator_dim": 12, "aero_window": 16} if workload == "tvca" else {}
    )
    for backend in backends():
        result = CampaignRunner.run_request(
            CampaignRequest(
                workload=workload,
                platform=platform,
                runs=5,
                base_seed=20177,
                backend=backend,
                workload_kwargs=kwargs,
                platform_kwargs={"num_cores": 1, "cache_kb": 4},
            )
        )
        assert [record.cycles for record in result.run_details] == PINNED[
            (workload, platform)
        ], backend
        assert records_digest(result) == PINNED_RECORDS[
            (workload, platform)
        ], backend


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


#: Same co-scheduled campaigns -> sha256 of their full run records (the
#: metadata carries the per-core, bus and memory breakdown).
PINNED_CONCURRENT_RECORDS = {
    ("table-walk", "det", "full-rand"):
        "a3fda2a55f2cab14c98139ee9c88c498913cc987739abdbfb378cc8179cd5422",
    ("table-walk", "det", "isolation"):
        "e5bd31f49c7984e550fdc36887ebadff214b8b33faff1ccc651a17f62220f3f3",
    ("table-walk", "det", "opponent-cpu"):
        "40dc12684186997ced38fdbf7186e65368d5bea7824e6a70468e687924a8600a",
    ("table-walk", "det", "opponent-memory-hammer"):
        "e630303d91c7c00db62641f269066ff8b92b5cc0b00a51d27a158a4b9f015dce",
    ("table-walk", "rand", "full-rand"):
        "927855873ba4d697859e7889ca093452fe008806324e3e41521896086a04b259",
    ("table-walk", "rand", "isolation"):
        "34b85be2a275192def4282d79522991b9d4f19cdfc9bd3a13746210a695f30f7",
    ("table-walk", "rand", "opponent-cpu"):
        "2dae9b14117e313fb3b3e5b6a5cb1eee9c3b246705bbab39c886adda093a3b48",
    ("table-walk", "rand", "opponent-memory-hammer"):
        "db598c8afba22b554978ce5a5cb11212d04d90c57ae3c486744dc4890d7169bb",
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
    for backend in backends():
        soc = create_platform(platform, num_cores=4, cache_kb=4)
        runner = CampaignRunner(
            CampaignConfig(runs=5, base_seed=20177), backend=backend
        )
        result = runner.run(
            create_scenario(scenario, create_workload(workload)), soc
        )
        cycles = [record.cycles for record in result.run_details]
        assert cycles == expected, backend
        assert records_digest(result) == PINNED_CONCURRENT_RECORDS[
            (workload, platform, scenario)
        ], backend
