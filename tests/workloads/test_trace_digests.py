"""Golden trace digests: the emitted traces are pinned byte for byte.

Cycle-level tests would miss a trace change that happens to cost the
same; these digests pin every column of every record (types included:
``repr`` distinguishes ``True`` from ``1`` and ``0.0`` from ``0``) for
every registered program workload and for TVCA run plans.  A change to
the trace compiler must leave them untouched.
"""

import hashlib

import pytest

from repro.api.registry import create_platform, create_workload
from repro.workloads.tvca.app import TvcaApplication, TvcaConfig

COLUMNS = ("kinds", "pcs", "addrs", "operand_classes", "dep_distances", "takens")


def _update(hasher, trace):
    for column in COLUMNS:
        hasher.update(repr(getattr(trace, column)).encode())


def trace_digest(trace, path):
    hasher = hashlib.sha256()
    _update(hasher, trace)
    hasher.update(path.encode())
    return hasher.hexdigest()


def plan_digest(plan):
    hasher = hashlib.sha256()
    for trace in plan.traces:
        _update(hasher, trace)
    hasher.update(repr(plan.signatures).encode())
    hasher.update(plan.path_class.encode())
    hasher.update(plan.input_profile.encode())
    return hasher.hexdigest()


WORKLOAD_DIGESTS = {
    ("matmul", 0): (
        "29dc8662b2a2860202fa9ad27e0b85be8197886a330680cbfaa0ea8e79ba23f8"
    ),
    ("fir", 0): (
        "fca65ef197d42f50a5f1527721ecebf65d972653a810f8e8970a11148c2c30fa"
    ),
    ("strided", 0): (
        "8d4d6b5654c8a7c2bd0fd6669f4c65ea5be814fca33db5a34129ab4b50d068d3"
    ),
    ("table-walk", 5): (
        "e6d1390e9578a5e67586b127a8f3d8543548881e31b6f3133aee6d11af7fb79a"
    ),
    ("table-walk", 6): (
        "8a82cfb9983dede770c4e24dcfcf941166fd4cabad0cfb073c7acadcebb86bac"
    ),
    ("fpu-stress", 5): (
        "07eebeda87271ef6f6af816bc702d0c872064d9593bbefdc335f9de797147990"
    ),
    ("fpu-stress", 6): (
        "06f100ea040171f6ba1c067e4b69336791a3cd9c3ea795d8826ca5419e45594f"
    ),
    ("tvca", 7): (
        "09d20944f414bacbbb57f22bd9bdcfceb60aa93beb4085c6ad9336f9a0e09e81"
    ),
}

PLAN_DIGESTS = {
    1: "3f8d506fac4dd3dccc148e9a9d2eff584c920edc1283b7adbb4d1b3bf0dafb61",
    2: "fce32dd789d0af24229967b7c1a0b1238b77b5919c580287a7ad8c2c607b77cf",
    3: "cd051899cda7a3c8070060babb91f5c7e400022b8ab7456b6ae72ec6bd0cd1a4",
}


@pytest.fixture(scope="module")
def platform():
    return create_platform("rand")


@pytest.mark.parametrize(
    "name,input_seed", sorted(WORKLOAD_DIGESTS), ids=lambda v: str(v)
)
def test_registered_workload_trace_digest(platform, name, input_seed):
    workload = create_workload(name)
    workload.prepare(platform)
    prepared = workload.build_trace(platform, run_seed=0, input_seed=input_seed)
    digest = trace_digest(prepared.trace, prepared.path)
    assert digest == WORKLOAD_DIGESTS[(name, input_seed)]


@pytest.fixture(scope="module")
def tvca_app():
    return TvcaApplication(TvcaConfig())


@pytest.mark.parametrize("input_seed", sorted(PLAN_DIGESTS))
def test_tvca_plan_digest(tvca_app, input_seed):
    assert plan_digest(tvca_app.build_plan(input_seed)) == PLAN_DIGESTS[input_seed]
