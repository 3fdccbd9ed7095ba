"""Bit-for-bit pins of the fleet simulator's outputs.

The event loop in :mod:`repro.fleet.simulate`, the device state in
:mod:`repro.fleet.device` and the policies in :mod:`repro.fleet.dispatch`
are hot code that is tuned for speed, and tuning must never move a
result. These tests hash canonical JSON of

* each fleet spec's ``to_dict()`` at a few hundred requests, with
  endurance budgets that kill PEs mid-run, and
* the fields of :func:`~repro.fleet.simulate.simulate_fleet` for every
  dispatch policy x device mode x {no budgets, budgets},

and compare the SHA-256 against digests recorded before the loop was
optimized. A deliberate change to fleet semantics re-pins the digests
and says so in its commit.

Floats are hashed by their exact ``repr`` with one exception: the
closed-form MTTF projections run vectorized ``power``/``exp``, whose
last bit depends on the host's SIMD path, so they are rounded to nine
significant digits. Their inputs — the per-device usage ledgers — are
pinned exactly.
"""

import hashlib
import json

import pytest

from repro.accuracy.slo import SLOClass
from repro.experiments.common import paper_accelerator
from repro.experiments.fleet import _calibrated_fleet_budget
from repro.experiments.registry import get_spec
from repro.experiments.result import to_jsonable
from repro.fleet.device import DEVICE_MODES, build_profiles
from repro.fleet.dispatch import DISPATCH_POLICY_NAMES, SLO_DISPATCH_POLICY_NAMES
from repro.fleet.montecarlo import calibrated_rate
from repro.fleet.simulate import FleetConfig, simulate_fleet
from repro.fleet.traffic import WorkloadMix, make_traffic

NUM_REQUESTS = 300


def _canonical(value, key=""):
    """Plain data with closed-form MTTF floats rounded (see module doc)."""
    if isinstance(value, dict):
        return {name: _canonical(item, name) for name, item in value.items()}
    if isinstance(value, list):
        # ``(label, value)`` pairs, as in a Monte Carlo summary, carry
        # the field name in their label.
        if len(value) == 2 and isinstance(value[0], str):
            return [value[0], _canonical(value[1], value[0])]
        return [_canonical(item, key) for item in value]
    if isinstance(value, float) and "mttf" in key.lower():
        return float(f"{value:.9g}")
    return value


def digest(value) -> str:
    """SHA-256 of the canonical JSON of ``value``."""
    text = json.dumps(
        _canonical(to_jsonable(value)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()


#: Spec id -> small-size overrides. ``fleet-degradation`` and
#: ``fleet-accuracy`` calibrate their budgets so PEs die mid-run; the
#: other two get an explicit budget of the same scale.
SPEC_CASES = {
    "fleet-lifetime": dict(
        num_requests=NUM_REQUESTS, mean_budget=150_000.0, scenarios=2,
        jobs=1, show_heatmaps=False,
    ),
    "fleet-policies": dict(
        num_requests=NUM_REQUESTS, mean_budget=150_000.0, jobs=1
    ),
    "fleet-degradation": dict(num_requests=NUM_REQUESTS, jobs=1),
    "fleet-accuracy": dict(num_requests=NUM_REQUESTS, jobs=1),
}

SPEC_DIGESTS = {
    "fleet-lifetime": (
        "7296a049097de64e2d969740e32d4c195fea6d26f927c209dd9c7f3874f01fcf"
    ),
    "fleet-policies": (
        "2bc4b24ca2e8f1eb09bd381c4867cf258b54ecb04383314f2dacbb5fef912cc8"
    ),
    "fleet-degradation": (
        "f51c3caf1aa879f62817ff3d38383d649b3e21dc3146bff62c2665eeac757d45"
    ),
    "fleet-accuracy": (
        "e0530e56f543e7018b705a9432ed9e1ec10abc3e5440905b7e4f694f8e0771a5"
    ),
}

POLICIES = DISPATCH_POLICY_NAMES + SLO_DISPATCH_POLICY_NAMES

#: (policy, mode, budgets) -> digest of the simulate_fleet result.
SIMULATE_DIGESTS = {
    "round_robin/retire/free": (
        "a5a3259fa3bb94f8443e1adc511fd41397072023a7e96b6d9267906c90343d7f"
    ),
    "round_robin/retire/budgets": (
        "34ad1606f3f8d78dc4037b8360e9806bf7ef060e8cf87444c360fe26e1256a15"
    ),
    "round_robin/serve-degraded-approx/free": (
        "5a94e3dab8fa9ed8455aba4db390e922633c4b78ba7d4aceec93aadf6fc175e8"
    ),
    "round_robin/serve-degraded-approx/budgets": (
        "4a7901aa2dffa19a1eab954e570f06d5e8f853cfaf20c4a3d5dac60618665cc5"
    ),
    "least_outstanding/retire/free": (
        "8e055d0f546fe589a6fbb26b9273181b0638009c18c47af45e89d3f3292fa621"
    ),
    "least_outstanding/retire/budgets": (
        "54083c6b53724216ac178b669105280966d7cafa979cc66c48bdceb92fadbaa6"
    ),
    "least_outstanding/serve-degraded-approx/free": (
        "afaa346b8e98b60eaac35086f877f3c818a897636462aa16718a42f275a63c51"
    ),
    "least_outstanding/serve-degraded-approx/budgets": (
        "80cf13c081cac71dd1fc6b3d98ff7023d1291e2fe1865794bd2be4a47cc6a46a"
    ),
    "least_wear/retire/free": (
        "9ae2fb7ebc3f9fcf3e8ba84d8147930605bcf847af75912f354d19ea51fb5bc2"
    ),
    "least_wear/retire/budgets": (
        "9e194bc07f614d38a2e755766ca8ca2b2dab3d6e07d20a551e8e3838eeec1aba"
    ),
    "least_wear/serve-degraded-approx/free": (
        "4f4fa79592367a1e2c4f7a13dc8174b4b82c720cfe6f2e3ecb1260140b18426a"
    ),
    "least_wear/serve-degraded-approx/budgets": (
        "6bff345ff38672d1898086b24217d1ff81e3ab972b736fc08d09a867ddb908c4"
    ),
    "rotational/retire/free": (
        "6dfeaef4cd33a1189f00f7a0a55a290701123b149bfbecd37988b9011f583e49"
    ),
    "rotational/retire/budgets": (
        "3762d53f6a180e7daff9b0c6f66de93181fc1e7cd8ada3f2362efec89488bef1"
    ),
    "rotational/serve-degraded-approx/free": (
        "e145da0f15c443869c10412353585f2ecc7b6038a1ab7e650647b5dea928be44"
    ),
    "rotational/serve-degraded-approx/budgets": (
        "9208d5d41934c8c86dd78cf3848db34b5398bcb5f349df32fc02476ef6f20575"
    ),
    "slo_aware/retire/free": (
        "cfc361cdb91af9511f3ea9b80f541033e147e2a825c06e3f405e91a987b82a38"
    ),
    "slo_aware/retire/budgets": (
        "e71c8b3269ed3baaf2066a2d6ff35331eb9eb6efb9f7631864ba0de02ceafe9e"
    ),
    "slo_aware/serve-degraded-approx/free": (
        "7b5a36c6217661397bbcaa06dabd13364e2ca55bd602323a0678b1c8b6fe5cd8"
    ),
    "slo_aware/serve-degraded-approx/budgets": (
        "fce916e20af6b11418453edccb99a7ffa0aa316cd0582e3e6aed04d3e06df03e"
    ),
    "slo_rotational/retire/free": (
        "93dc2de61066b18d4644ad3199e59fa6bba409a297981f304964c0e8c8454ccc"
    ),
    "slo_rotational/retire/budgets": (
        "25ae0c8109f61df70701ca3f0ec9e337cb9ba3dfacdae5a91c9850bc556de392"
    ),
    "slo_rotational/serve-degraded-approx/free": (
        "e05b3fe47cc47d17f19be689ebc9de69a5336d85faadf780f09feab224366d63"
    ),
    "slo_rotational/serve-degraded-approx/budgets": (
        "cf64f04bb063c57a79dbae6c6d3134f51f1e049586b28ea75902fb211bde4025"
    ),
}


class TestSpecIdentity:
    @pytest.mark.parametrize("spec_id", sorted(SPEC_CASES))
    def test_spec_payload_is_pinned(self, spec_id):
        result = get_spec(spec_id).resolve()(**SPEC_CASES[spec_id])
        assert digest(result.to_dict()) == SPEC_DIGESTS[spec_id]


@pytest.fixture(scope="module")
def scenario():
    """Paper profiles, SLO-tagged bursty traffic, a mid-run budget."""
    mix = WorkloadMix.default_skewed().with_slos(
        (("SqueezeNet", SLOClass.tolerant(0.12)),)
    )
    accelerator = paper_accelerator()
    profiles = build_profiles(mix.names, accelerator)
    rate = calibrated_rate(profiles, mix, FleetConfig(num_devices=4))
    requests = make_traffic("bursty", NUM_REQUESTS, rate, mix=mix, seed=11)
    budget = _calibrated_fleet_budget(profiles, mix, 4, NUM_REQUESTS)
    return profiles, requests, accelerator, budget


class TestSimulateIdentity:
    @pytest.mark.parametrize("budgets", [False, True], ids=["free", "budgets"])
    @pytest.mark.parametrize("mode", DEVICE_MODES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_simulate_fields_are_pinned(self, scenario, policy, mode, budgets):
        profiles, requests, accelerator, budget = scenario
        config = FleetConfig(
            num_devices=4,
            policy=policy,
            queue_limit=6,
            mean_budget=budget if budgets else None,
            min_alive_fraction=0.75,
            mode=mode,
        )
        result = simulate_fleet(
            profiles, requests, accelerator=accelerator, config=config, seed=5
        )
        if budgets:
            # The pin covers the death, retirement and degraded paths.
            assert result.pe_deaths
        key = f"{policy}/{mode}/{'budgets' if budgets else 'free'}"
        assert digest(result) == SIMULATE_DIGESTS[key]
