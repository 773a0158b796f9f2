"""Policy parameter spaces: validation, canonicalization, materialisation.

The negative paths mirror the :class:`ScenarioSpec` validation tests:
every malformed space is rejected at construction time with a precise
``ValueError`` naming the offending dimension and value.  The positive
paths pin the canonicalization contract -- no-op parameters are
normalised away and the resulting duplicates dropped -- and that a
config materialises into exactly the policy objects the simulators use.
"""

import math

import pytest

from repro.fleet.autoscaler import Autoscaler
from repro.fleet.routing import PackRouting, SpreadRouting
from repro.kernels.batch import ReplaySpec
from repro.opt import ParamSpace, PolicyConfig


class TestParamSpaceValidation:
    def test_empty_dimension_rejected(self):
        with pytest.raises(
            ValueError, match=r"dimension 'governors' must not be empty"
        ):
            ParamSpace(governors=())

    def test_every_dimension_checked_for_emptiness(self):
        for name in (
            "fleet_sizes",
            "governors",
            "routings",
            "fill_fractions",
            "bands",
            "wake_steps",
            "degradation_bounds",
        ):
            with pytest.raises(
                ValueError, match=rf"dimension {name!r} must not be empty"
            ):
                ParamSpace(**{name: ()})

    def test_duplicate_entries_rejected(self):
        with pytest.raises(
            ValueError, match=r"dimension 'fleet_sizes' contains duplicates"
        ):
            ParamSpace(fleet_sizes=(4, 4))

    def test_non_integer_fleet_size_rejected(self):
        for size in (2.5, 2.0, True):
            with pytest.raises(
                ValueError,
                match=rf"'fleet_sizes': fleet sizes must be integers >= 1, "
                rf"got {size!r}",
            ):
                ParamSpace(fleet_sizes=(size,))

    def test_zero_fleet_size_rejected(self):
        with pytest.raises(
            ValueError, match=r"fleet sizes must be integers >= 1, got 0"
        ):
            ParamSpace(fleet_sizes=(0,))

    def test_unregistered_governor_rejected(self):
        with pytest.raises(
            ValueError,
            match=r"unknown governors \['turbo'\]; known governors: ",
        ):
            ParamSpace(governors=("qos_tracker", "turbo"))

    def test_unregistered_routing_rejected(self):
        with pytest.raises(
            ValueError,
            match=r"unknown routings \['random'\]; known policies: ",
        ):
            ParamSpace(routings=("random",))

    def test_fill_fraction_out_of_range_rejected(self):
        with pytest.raises(
            ValueError,
            match=r"fill fractions must be finite and in \(0, 1\], got 1.5",
        ):
            ParamSpace(fill_fractions=(1.5,))

    def test_nan_fill_fraction_rejected(self):
        with pytest.raises(
            ValueError, match=r"fill fractions must be finite"
        ):
            ParamSpace(fill_fractions=(math.nan,))

    def test_degenerate_band_rejected(self):
        with pytest.raises(
            ValueError,
            match=r"degenerate band \(need low < high\), got low=0.8 high=0.4",
        ):
            ParamSpace(bands=((0.8, 0.4),))

    def test_equal_band_bounds_rejected(self):
        with pytest.raises(
            ValueError, match=r"degenerate band \(need low < high\)"
        ):
            ParamSpace(bands=((0.5, 0.5),))

    def test_band_must_be_a_pair(self):
        with pytest.raises(
            ValueError, match=r"a band is a \(low, high\) pair"
        ):
            ParamSpace(bands=((0.2, 0.5, 0.9),))

    def test_nan_band_bound_rejected(self):
        with pytest.raises(ValueError, match=r"band bounds must be finite"):
            ParamSpace(bands=((math.nan, 0.7),))

    def test_band_outside_unit_interval_rejected(self):
        with pytest.raises(
            ValueError, match=r"band must satisfy 0 < low < high <= 1"
        ):
            ParamSpace(bands=((0.0, 0.7),))

    def test_negative_wake_steps_rejected(self):
        with pytest.raises(
            ValueError, match=r"wake steps must be integers >= 0, got -1"
        ):
            ParamSpace(wake_steps=(-1,))

    def test_nan_degradation_bound_rejected(self):
        with pytest.raises(
            ValueError, match=r"degradation bound must not be NaN"
        ):
            ParamSpace(degradation_bounds=(math.nan,))

    def test_infinite_degradation_bound_rejected(self):
        with pytest.raises(
            ValueError, match=r"degradation bound must be finite and >= 1"
        ):
            ParamSpace(degradation_bounds=(math.inf,))

    def test_sub_unity_degradation_bound_rejected(self):
        with pytest.raises(
            ValueError, match=r"degradation bound must be finite and >= 1"
        ):
            ParamSpace(degradation_bounds=(0.5,))


class TestCanonicalization:
    def test_fill_fraction_is_noop_for_non_pack_routings(self):
        space = ParamSpace(
            routings=("pack", "spread"), fill_fractions=(0.6, 0.9)
        )
        configs = space.configs()
        # pack keeps both fills; spread collapses them to one config.
        assert space.raw_size == 4
        assert space.size == 3
        assert [c.fill_fraction for c in configs if c.routing == "pack"] == [
            0.6,
            0.9,
        ]
        spread = [c for c in configs if c.routing == "spread"]
        assert len(spread) == 1
        assert spread[0].fill_fraction is None

    def test_wake_steps_is_noop_for_the_static_band(self):
        space = ParamSpace(bands=(None, (0.3, 0.7)), wake_steps=(1, 3))
        configs = space.configs()
        assert space.raw_size == 4
        assert space.size == 3
        static = [c for c in configs if c.band is None]
        assert len(static) == 1
        assert static[0].wake_steps is None

    def test_enumeration_order_is_deterministic(self):
        space = ParamSpace(
            fleet_sizes=(2, 4), governors=("ondemand", "qos_tracker")
        )
        assert space.configs() == space.configs()
        assert [c.fleet_size for c in space.configs()] == [2, 2, 4, 4]

    def test_summary_reports_both_sizes(self):
        space = ParamSpace(
            routings=("pack", "spread"), fill_fractions=(0.6, 0.9)
        )
        summary = space.summary()
        assert summary["raw_size"] == 4
        assert summary["size"] == 3
        assert summary["routings"] == ["pack", "spread"]


class TestPolicyConfigMaterialisation:
    def test_pack_config_builds_custom_fill_routing(self):
        config = PolicyConfig(
            governor="qos_tracker",
            routing="pack",
            fleet_size=4,
            fill_fraction=0.6,
        )
        routing = config.routing_policy()
        assert isinstance(routing, PackRouting)
        assert routing.fill_fraction == 0.6

    def test_non_pack_config_uses_registry_router(self):
        config = PolicyConfig(
            governor="qos_tracker", routing="spread", fleet_size=4
        )
        assert isinstance(config.routing_policy(), SpreadRouting)

    def test_band_builds_autoscaler_and_static_does_not(self):
        banded = PolicyConfig(
            governor="qos_tracker",
            routing="pack",
            fleet_size=4,
            band=(0.3, 0.7),
            wake_steps=2,
        )
        scaler = banded.autoscaler()
        assert scaler == Autoscaler(low=0.3, high=0.7, wake_steps=2)
        static = PolicyConfig(
            governor="qos_tracker", routing="pack", fleet_size=4
        )
        assert static.autoscaler() is None

    def test_replay_spec_round_trip(self, diurnal_trace):
        from repro.workloads.cloudsuite import WEB_SEARCH

        config = PolicyConfig(
            governor="ondemand",
            routing="pack",
            fleet_size=3,
            fill_fraction=0.8,
            band=(0.3, 0.7),
            wake_steps=1,
        )
        spec = config.replay_spec(WEB_SEARCH, diurnal_trace)
        assert spec == ReplaySpec(
            workload=WEB_SEARCH,
            trace=diurnal_trace,
            governor="ondemand",
            fleet_size=3,
            routing=PackRouting(fill_fraction=0.8),
            autoscaler=Autoscaler(low=0.3, high=0.7, wake_steps=1),
        )

    def test_key_orders_configs_totally(self):
        space = ParamSpace(
            fleet_sizes=(2, 4),
            governors=("ondemand", "qos_tracker"),
            routings=("pack", "spread"),
            bands=(None, (0.3, 0.7)),
        )
        keys = [config.key() for config in space.configs()]
        assert len(set(keys)) == len(keys)
        assert sorted(keys) == sorted(keys, key=lambda k: tuple(k))
