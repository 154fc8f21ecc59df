"""Device specs, pool planner, least-loaded routing, and the policy registry.

Edge cases the cluster suite's end-to-end runs never pin down directly:
odd pool splits, K=2 minimum pools, degenerate planner ratios, the
deterministic tie-breaks of least-loaded routing on heterogeneous pools,
alias normalisation, and the ``ROUTER_REGISTRY`` dispatch contract.
"""

from __future__ import annotations

import pytest

from repro.decoding.base import PHASE_DRAFT, PHASE_VERIFY, PhaseOutcome
from repro.serving import router as router_module
from repro.serving.devices import (
    Device,
    DeviceSpec,
    format_device_specs,
    make_devices,
    parse_device_specs,
)
from repro.serving.router import (
    ROUTER_POLICIES,
    ROUTER_REGISTRY,
    ClusterConfig,
    ColocatedRouter,
    DisaggregatedRouter,
    MergedVerifyRouter,
    build_router,
    measure_draft_share,
    plan_pool_split,
)


def _phase(kind: str, ms: float = 10.0) -> PhaseOutcome:
    model = "draft-model" if kind == PHASE_DRAFT else "target-model"
    return PhaseOutcome(kind, model, ms, (), True, False)


class TestDeviceSpecs:
    def test_parse_count_groups(self):
        specs = parse_device_specs("2x1.0,2x0.5")
        assert [s.speed for s in specs] == [1.0, 1.0, 0.5, 0.5]

    def test_parse_bare_speeds(self):
        specs = parse_device_specs("1.0, 0.25")
        assert [s.speed for s in specs] == [1.0, 0.25]

    def test_parse_mixed_forms(self):
        specs = parse_device_specs("3x2.0,0.5")
        assert [s.speed for s in specs] == [2.0, 2.0, 2.0, 0.5]

    @pytest.mark.parametrize(
        "bad",
        ("", ",", "2x", "x1.0", "ax1.0", "2xfast", "0x1.0", "-1x1.0", "2x0"),
    )
    def test_parse_rejects_bad_groups(self, bad):
        with pytest.raises(ValueError):
            parse_device_specs(bad)

    def test_zero_count_group_names_the_offender(self):
        # "0x1.0" parses as count=0 — not a malformed token, a nonsensical
        # cluster — so the message must say the count is the problem
        with pytest.raises(ValueError, match="count >= 1") as err:
            parse_device_specs("0x1.0")
        assert "0x1.0" in str(err.value)
        with pytest.raises(ValueError, match="count >= 1"):
            parse_device_specs("2x1.0,0x0.5")

    @pytest.mark.parametrize("bad", ("", "   ", "2x1.0,,1.0", "1.0,", ",0.5"))
    def test_empty_segments_are_called_out(self, bad):
        with pytest.raises(ValueError, match="empty device group"):
            parse_device_specs(bad)

    @pytest.mark.parametrize("bad", ("2x", "x1.0", "2x1x0.5"))
    def test_malformed_groups_show_expected_shape(self, bad):
        with pytest.raises(ValueError, match="COUNTxSPEED") as err:
            parse_device_specs(bad)
        assert repr(bad) in str(err.value)

    @pytest.mark.parametrize("bad", ("2xnan", "1xinf", "nan", "-inf"))
    def test_parse_rejects_non_finite_speeds(self, bad):
        # NaN compares False against every bound; without an explicit
        # finiteness check it would poison free_at and hang the event loop
        with pytest.raises(ValueError, match="finite"):
            parse_device_specs(bad)

    def test_device_rejects_non_finite_params(self):
        with pytest.raises(ValueError, match="finite"):
            Device(0, overlap=0.8, speed=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            Device(0, overlap=0.8, switch_cost=float("inf"))
        with pytest.raises(ValueError):
            DeviceSpec(speed=float("inf"))
        with pytest.raises(ValueError):
            DeviceSpec(speed=1.0, switch_cost=float("nan"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(speed=0.0)
        with pytest.raises(ValueError):
            DeviceSpec(speed=1.0, overlap=1.5)
        with pytest.raises(ValueError):
            DeviceSpec(speed=1.0, switch_cost=-0.1)

    def test_format_round_trip(self):
        text = "2x1,2x0.5"
        assert format_device_specs(parse_device_specs(text)) == text
        assert format_device_specs(parse_device_specs("1.0,0.5,0.5")) == "1x1,2x0.5"

    def test_make_devices_applies_spec_overrides(self):
        specs = (
            DeviceSpec(speed=2.0),
            DeviceSpec(speed=0.5, overlap=0.3, switch_cost=0.0),
        )
        fast, slow = make_devices(2, overlap=0.9, specs=specs)
        assert fast.speed == 2.0
        assert fast.overlap == 0.9  # inherits the cluster default
        assert (slow.speed, slow.overlap, slow.switch_cost) == (0.5, 0.3, 0.0)

    def test_make_devices_length_mismatch(self):
        with pytest.raises(ValueError, match="2 entries"):
            make_devices(3, overlap=0.8, specs=(DeviceSpec(), DeviceSpec()))

    def test_speed_scales_batch_cost(self):
        specs = (DeviceSpec(speed=2.0), DeviceSpec(speed=0.5))
        fast, slow = make_devices(2, overlap=0.8, specs=specs)
        batch = [_phase(PHASE_VERIFY, 10.0)]
        assert fast.batch_busy_ms(batch) == pytest.approx(5.0)
        assert slow.batch_busy_ms(batch) == pytest.approx(20.0)


class TestPoolPlanner:
    def test_degenerate_all_verify(self):
        # draft share 0: minimum viable draft pool (one device, slowest)
        draft, target = plan_pool_split([1.0, 1.0, 1.0, 1.0], 0.0)
        assert draft == (0,)
        assert target == (1, 2, 3)

    def test_degenerate_all_draft(self):
        draft, target = plan_pool_split([1.0, 1.0, 1.0, 1.0], 1.0)
        assert len(draft) == 3
        assert len(target) == 1  # target pool never empties

    def test_k2_minimum_pools(self):
        for share in (0.0, 0.25, 0.5, 0.75, 1.0):
            draft, target = plan_pool_split([1.0, 1.0], share)
            assert len(draft) == 1 and len(target) == 1

    def test_share_matches_speed_fraction(self):
        # 2 fast + 2 slow; share 0.33 -> the two slow devices (1/3 of
        # speed) draft, the fast ones verify
        draft, target = plan_pool_split([1.0, 1.0, 0.5, 0.5], 1.0 / 3.0)
        assert draft == (2, 3)
        assert target == (0, 1)

    def test_slowest_devices_draft_first(self):
        draft, target = plan_pool_split([2.0, 0.25, 1.0], 0.1)
        assert draft == (1,)  # the 0.25x part
        assert target == (0, 2)

    def test_tie_prefers_smaller_draft_pool(self):
        # shares 1/4 and 2/4 are equidistant from 0.375: keep draft small
        draft, _ = plan_pool_split([1.0, 1.0, 1.0, 1.0], 0.375)
        assert len(draft) == 1

    def test_equal_speed_ties_break_by_index(self):
        draft, target = plan_pool_split([1.0, 1.0, 1.0], 0.34)
        assert draft == (0,)
        assert target == (1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_pool_split([1.0], 0.5)
        with pytest.raises(ValueError):
            plan_pool_split([1.0, 1.0], 1.5)

    def test_odd_k_fixed_split_favours_target(self):
        devices = make_devices(5, overlap=0.8)
        router = DisaggregatedRouter(devices, split="fixed")
        assert len(router.draft_pool) == 2
        assert len(router.target_pool) == 3

    def test_balanced_split_reshapes_pools(self):
        devices = make_devices(4, overlap=0.8)
        fixed = DisaggregatedRouter(devices, split="fixed")
        balanced = DisaggregatedRouter(devices, split="balanced", draft_share=0.1)
        assert len(fixed.draft_pool) == 2
        assert len(balanced.draft_pool) == 1
        assert len(balanced.target_pool) == 3

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            DisaggregatedRouter(make_devices(2, overlap=0.8), split="optimal")


class TestLeastLoadedRouting:
    def _router(self, speeds, share=0.5):
        specs = tuple(DeviceSpec(speed=s) for s in speeds)
        devices = make_devices(len(speeds), overlap=0.8, specs=specs)
        router = DisaggregatedRouter(devices, split="balanced", draft_share=share)
        return devices, router

    def test_round_projection_spreads_phases(self):
        # two equal target devices: consecutive verify phases alternate
        # instead of stacking on the argmin
        devices, router = self._router([1.0, 1.0, 1.0, 1.0], share=0.5)
        router.plan_round(0.0)
        first = router.route(0, _phase(PHASE_VERIFY))
        second = router.route(1, _phase(PHASE_VERIFY))
        assert first.index != second.index
        assert {first.index, second.index} == {d.index for d in router.target_pool}

    def test_tie_breaks_prefer_fast_then_low_index(self):
        devices, router = self._router([0.5, 2.0, 2.0, 0.5], share=0.25)
        assert [d.index for d in router.target_pool] == [1, 2]
        router.plan_round(0.0)
        chosen = router.route(0, _phase(PHASE_VERIFY))
        assert chosen.index == 1  # equal projection, equal speed: low index
        devices[1].free_at = 5.0
        router.plan_round(0.0)
        assert router.route(0, _phase(PHASE_VERIFY)).index == 2  # now earlier

    def test_busy_devices_still_accept_routes_for_later(self):
        # routing never raises when every pool device is busy; phases just
        # queue behind the earliest projected finisher
        devices, router = self._router([1.0, 1.0], share=0.5)
        for device in devices:
            device.free_at = 100.0
        router.plan_round(0.0)
        assert router.route(0, _phase(PHASE_DRAFT)) is router.draft_pool[0]

    def test_merged_verify_phases_stack_for_coalescing(self):
        # merged verification coalesces co-scheduled verify passes to their
        # critical path, so the router must stack them on one target device
        # instead of spreading the exact phases it exists to merge
        specs = tuple(DeviceSpec(speed=1.0) for _ in range(4))
        devices = make_devices(4, overlap=0.8, specs=specs)
        router = MergedVerifyRouter(devices, split="balanced", draft_share=0.5)
        router.plan_round(0.0)
        first = router.route(0, _phase(PHASE_VERIFY, 10.0))
        second = router.route(1, _phase(PHASE_VERIFY, 10.0))
        assert first.index == second.index
        # a *costlier* verify phase only extends the stack by its excess
        # over the round's peak, so it still prefers the loaded device
        third = router.route(2, _phase(PHASE_VERIFY, 12.0))
        assert third.index == first.index
        # draft phases keep the spreading projection under merged verify
        d1 = router.route(3, _phase(PHASE_DRAFT, 10.0))
        d2 = router.route(4, _phase(PHASE_DRAFT, 10.0))
        assert d1.index != d2.index

    def test_deterministic_across_reruns(self):
        picks = []
        for _ in range(2):
            devices, router = self._router([1.0, 0.5, 2.0, 1.0], share=0.3)
            router.plan_round(0.0)
            picks.append(
                [
                    router.route(i, _phase(kind)).index
                    for i, kind in enumerate(
                        (PHASE_VERIFY, PHASE_VERIFY, PHASE_DRAFT, PHASE_VERIFY)
                    )
                ]
            )
        assert picks[0] == picks[1]


class TestRouterRegistry:
    def test_policies_mirror_registry(self):
        assert ROUTER_POLICIES == tuple(ROUTER_REGISTRY)
        assert ROUTER_REGISTRY == {
            "colocated": ColocatedRouter,
            "disaggregated": DisaggregatedRouter,
            "merged": MergedVerifyRouter,
        }

    @pytest.mark.parametrize("policy", ROUTER_POLICIES)
    def test_build_router_dispatches_every_policy(self, policy):
        devices_needed = 1 if policy == "colocated" else 2
        devices, router = build_router(
            ClusterConfig(devices=devices_needed, router=policy), overlap=0.8
        )
        assert isinstance(router, ROUTER_REGISTRY[policy])
        assert router.name == policy
        assert len(devices) == devices_needed

    def test_registered_policy_needs_no_dispatch_branch(self, monkeypatch):
        # Regression: adding a policy used to require editing an if-chain
        # in build_router; now one registry entry is sufficient for both
        # config validation and dispatch.
        class EveryoneToDeviceZero(ColocatedRouter):
            name = "dev0-only"

            def route(self, request_index, phase):
                return self.devices[0]

        monkeypatch.setitem(ROUTER_REGISTRY, "dev0-only", EveryoneToDeviceZero)
        config = ClusterConfig(devices=2, router="dev0-only")
        _, router = build_router(config, overlap=0.8)
        assert isinstance(router, EveryoneToDeviceZero)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            ClusterConfig(devices=2, router="unknown-policy")


class TestClusterConfigSpecs:
    def test_devices_derived_from_specs(self):
        config = ClusterConfig(device_specs=parse_device_specs("2x1.0,2x0.5"))
        assert config.devices == 4

    def test_explicit_matching_count_accepted(self):
        config = ClusterConfig(
            devices=2, router="merged", device_specs=parse_device_specs("1.0,0.5")
        )
        assert config.devices == 2

    def test_mismatched_count_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            ClusterConfig(devices=3, device_specs=parse_device_specs("2x1.0"))

    def test_explicit_devices_one_mismatch_rejected(self):
        # devices=1 is an explicit count like any other, not a wildcard
        with pytest.raises(ValueError, match="does not match"):
            ClusterConfig(devices=1, device_specs=parse_device_specs("2x1.0,2x0.5"))

    def test_omitted_devices_defaults_to_one(self):
        assert ClusterConfig().devices == 1
        assert ClusterConfig(router="colocated").devices == 1

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ClusterConfig(device_specs=())

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            ClusterConfig(devices=2, router="merged", split="optimal")

    def test_build_router_heterogeneous_speeds(self):
        config = ClusterConfig(
            router="disaggregated",
            split="balanced",
            device_specs=parse_device_specs("2x1.0,2x0.5"),
        )
        devices, router = build_router(config, overlap=0.8, draft_share=1.0 / 3.0)
        assert [d.speed for d in devices] == [1.0, 1.0, 0.5, 0.5]
        assert [d.index for d in router.draft_pool] == [2, 3]
        assert [d.index for d in router.target_pool] == [0, 1]
        assert router.device_roles() == ("target", "target", "draft", "draft")


class TestMeasureDraftShare:
    class _ScriptedStepper:
        def __init__(self, outcomes):
            self._outcomes = list(outcomes)
            self.done = not self._outcomes

        def step_phase(self):
            outcome = self._outcomes.pop(0)
            self.done = not self._outcomes
            return outcome

    def test_share_is_draft_fraction(self):
        outcomes = [
            _phase(PHASE_DRAFT, 10.0),
            _phase(PHASE_VERIFY, 30.0),
        ]
        stepper = self._ScriptedStepper(outcomes)
        decoder = type("FakeDecoder", (), {"begin": lambda self, utt: stepper})()
        share = measure_draft_share(decoder, ["utt"])
        assert share == pytest.approx(0.25)

    def test_empty_utterances_default_to_zero(self):
        assert measure_draft_share(object(), []) == 0.0

    def test_module_default_share_constant_in_range(self):
        assert 0.0 <= router_module.DEFAULT_DRAFT_SHARE <= 1.0
