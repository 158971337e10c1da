"""Bursty multi-tenant request mixes (``tenantmix``).

Models a serving frontend whose traffic arrives in *bursts*: each
burst belongs to one tenant, every tenant submits one benchmark
profile (tenant 0 sends VideoMME-style video QA, tenant 1 VQAv2-style
image QA, ...), and burst lengths are drawn from a seeded generator
around a mean of ``burst`` requests.  Consecutive samples therefore
alternate between grids and token shapes exactly the way mixed-tenant
traffic does — the adversarial case for per-shape tile-plan
caches.

Sample ``i``'s tenant is found by walking the burst-length stream
from the start; every draw is keyed by the burst index, so the walk
is deterministic and sample ``i`` is independent of how many samples
are requested (prefix stability).
"""

from __future__ import annotations

from typing import Mapping

from repro.utils.rng import rng_for
from repro.workloads.datasets import Sample, get_profile, make_sample
from repro.workloads.scenarios.spec import (
    ParamValue,
    ScenarioSpec,
    register_family,
)

from repro.model.embedding import Codebooks

TENANT_PROFILES = ("videomme", "vqav2", "mlvu", "mmbench", "mvbench", "mme")
"""Profile submitted by each tenant slot (video/image interleaved)."""


def _validate(params: Mapping[str, ParamValue]) -> None:
    tenants = int(params["tenants"])
    if not 1 <= tenants <= len(TENANT_PROFILES):
        raise ValueError(
            f"tenantmix: tenants must be in 1..{len(TENANT_PROFILES)}"
        )
    if int(params["burst"]) < 1:
        raise ValueError("tenantmix: burst must be >= 1")


@register_family(
    "tenantmix",
    "bursty multi-tenant request mixes over the benchmark profiles",
    {"tenants": 3, "burst": 4},
    validate=_validate,
)
def generate(
    spec: ScenarioSpec, codebooks: Codebooks, seed: int, index: int
) -> Sample:
    params = spec.param_map
    tenants = int(params["tenants"])
    burst = int(params["burst"])

    # Walk bursts until the one containing `index`.  Lengths are
    # uniform on [1, 2*burst - 1] (mean `burst`), each drawn from a
    # stream keyed by the burst number alone.
    start = 0
    burst_index = 0
    while True:
        draw = rng_for(seed, "scenario", spec.name, "burst", burst_index)
        length = 1 + int(draw.integers(2 * burst - 1))
        if index < start + length:
            break
        start += length
        burst_index += 1
    tenant = int(
        rng_for(seed, "scenario", spec.name, "tenant", burst_index)
        .integers(tenants)
    )
    profile = get_profile(TENANT_PROFILES[tenant])
    # The scenario's own sample stream: keyed by the canonical name so
    # tenantmix items never collide with the base dataset's.
    return make_sample(profile, codebooks, seed, index,
                       stream_label=spec.name)
