"""Replay linter vs its consumer, the fluid gate.

The linter checks a firmware's ``replay_safe`` declaration against its
source: ``replay-safe`` firmwares are the ones the fluid gate admits,
``stateful`` ones (no declaration) are refused.  ``unsafe`` means the
linter caught a firmware declaring purity while mutating state — the
case the static check exists to catch *before* the fluid tier skips
periods that were not repetitive.
"""

import random

import pytest

from repro.analysis import ExperimentSpec
from repro.core.firmware_api import ACTION_FORWARD, FirmwareModel, FirmwareResult
from repro.verify import (
    CLASS_REPLAY_SAFE,
    CLASS_STATEFUL,
    CLASS_UNSAFE,
    bundled_firmware_classes,
    lint_all_models,
    lint_firmware_class,
)
from repro.verify.fluidgate import fluid_gate


class TestBundledClassifications:
    """The linter's call on every shipped behavioural firmware."""

    EXPECTED = {
        "ForwarderFirmware": CLASS_REPLAY_SAFE,
        "NicFirmware": CLASS_STATEFUL,
        "TwoStepForwarder": CLASS_REPLAY_SAFE,
        "FirewallFirmware": CLASS_REPLAY_SAFE,
        "NatFirmware": CLASS_STATEFUL,
        "PigasusHwReorderFirmware": CLASS_STATEFUL,
        "PigasusSwReorderFirmware": CLASS_STATEFUL,
        "ChainStageFirmware": CLASS_STATEFUL,
    }

    def test_every_bundled_model_classified(self):
        reports = {r.cls_name: r for r in lint_all_models()}
        assert set(reports) == set(self.EXPECTED)
        for name, expected in self.EXPECTED.items():
            assert reports[name].classification == expected, (
                name, reports[name].findings,
            )

    def test_no_bundled_model_is_unsafe(self):
        # unsafe = broken purity declaration; the repo must never ship one
        assert all(
            r.classification != CLASS_UNSAFE for r in lint_all_models()
        )

    def test_classification_matches_token_override(self):
        reports = zip(bundled_firmware_classes(), lint_all_models())
        for cls, report in reports:
            assert (report.classification == CLASS_REPLAY_SAFE) == (
                cls.replay_safe and not report.findings
            )


class TestRuntimeDifferential:
    """lint says replay-safe  <=>  the fluid gate admits the class."""

    @pytest.mark.parametrize("cls", bundled_firmware_classes(),
                             ids=lambda c: c.__name__)
    def test_lint_agrees_with_cache_bypass(self, cls):
        # the gate reads the class off the spec without building it
        report = lint_firmware_class(cls)
        gate = fluid_gate(ExperimentSpec(firmware=cls))
        assert gate.lint_classification == report.classification
        lint_reasons = [r for r in gate.reasons if "replay lint" in r]
        assert (report.classification == CLASS_REPLAY_SAFE) == (not lint_reasons), (
            report.to_dict(), gate.reasons,
        )

    def test_runtime_token_is_none_iff_lint_stateful(self):
        for cls in bundled_firmware_classes():
            report = lint_firmware_class(cls)
            assert (report.classification == CLASS_STATEFUL) == (
                not cls.replay_safe
            ), cls.__name__


class _UnsafeTokenFirmware(FirmwareModel):
    """Declares purity but stashes the packet — the lie the linter
    exists to catch."""

    replay_safe = True

    def process(self, packet, rpu_index):
        self.last_packet = packet  # not a counter bump
        return FirmwareResult(ACTION_FORWARD, sw_cycles=10)


class _CounterBumpFirmware(FirmwareModel):
    """Counter bumps are the one mutation the declaration allows."""

    replay_safe = True

    def __init__(self):
        self.forwarded = 0

    def process(self, packet, rpu_index):
        self.forwarded += 1
        return FirmwareResult(ACTION_FORWARD, sw_cycles=10)


class _RandomFirmware(FirmwareModel):
    replay_safe = True

    def process(self, packet, rpu_index):
        return FirmwareResult(
            ACTION_FORWARD, sw_cycles=10, egress_port=random.randrange(2)
        )


class _ContainerMutator(FirmwareModel):
    replay_safe = True

    def __init__(self):
        self.seen = []

    def process(self, packet, rpu_index):
        self.seen.append(packet.flow_hash)
        return FirmwareResult(ACTION_FORWARD, sw_cycles=10)


class TestCraftedClasses:
    def test_attribute_write_is_unsafe(self):
        report = lint_firmware_class(_UnsafeTokenFirmware)
        assert report.classification == CLASS_UNSAFE
        assert any(f.code == "attribute-write" for f in report.findings)

    def test_counter_bump_is_allowed(self):
        report = lint_firmware_class(_CounterBumpFirmware)
        assert report.classification == CLASS_REPLAY_SAFE
        assert report.counter_bumps == 1

    def test_nondeterminism_is_unsafe(self):
        report = lint_firmware_class(_RandomFirmware)
        assert report.classification == CLASS_UNSAFE
        assert any(f.code == "nondeterminism" for f in report.findings)

    def test_container_mutation_is_unsafe(self):
        report = lint_firmware_class(_ContainerMutator)
        assert report.classification == CLASS_UNSAFE
        assert any(f.code == "container-mutation" for f in report.findings)

    def test_transitive_helper_mutation_found(self):
        class _Indirect(FirmwareModel):
            replay_safe = True

            def _stash(self, packet):
                self.last = packet

            def process(self, packet, rpu_index):
                self._stash(packet)
                return FirmwareResult(ACTION_FORWARD, sw_cycles=1)

        report = lint_firmware_class(_Indirect)
        assert report.classification == CLASS_UNSAFE
        assert any(f.func == "_stash" for f in report.findings)

    def test_instance_accepted_too(self):
        report = lint_firmware_class(_CounterBumpFirmware())
        assert report.classification == CLASS_REPLAY_SAFE
