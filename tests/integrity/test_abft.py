"""ABFT checker primitives: math, device agreement, and cycle charges.

Pins the CRC-16/CCITT-FALSE check value, the host/device agreement of
the modular checksum and parity reductions, the heal-by-retry semantics
of the protected copy and checked DMA, the scrub pass over data at
rest, and the cost-model calibration that keeps checker overhead
honest.
"""

import numpy as np
import pytest

from repro.apu.device import APUDevice
from repro.core.params import DEFAULT_PARAMS
from repro.faults.plan import BitFlipFault
from repro.integrity import (
    IntegrityConfig,
    IntegrityError,
    MemoryFaultInjector,
    checked_l4_to_l1,
    crc16,
    get_cost_model,
    host_checksum,
    parity_tag,
    protected_cpy_16,
    scrub_pass,
    vr_checksum,
    vr_parity,
)

VLEN = DEFAULT_PARAMS.vr_length


class TestHostCheckers:
    def test_crc16_check_value(self):
        """CRC-16/CCITT-FALSE of '123456789' is the standard 0x29B1."""
        data = np.frombuffer(b"123456789", dtype=np.uint8)
        assert crc16(data) == 0x29B1

    def test_crc16_sensitive_to_single_bit(self):
        data = np.arange(256, dtype=np.uint16)
        clean = crc16(data)
        data[100] ^= 1 << 7
        assert crc16(data) != clean

    def test_parity_tag_xor_semantics(self):
        values = np.array([0x0001, 0x0010, 0x1100], dtype=np.uint16)
        assert parity_tag(values) == 0x1111
        assert parity_tag(np.array([], dtype=np.uint16)) == 0

    def test_host_checksum_wraps_mod_2_16(self):
        values = np.array([0xFFFF, 2], dtype=np.uint16)
        assert host_checksum(values) == 1


class TestDeviceCheckers:
    def test_vr_checksum_matches_host(self):
        core = APUDevice().core
        rng = np.random.default_rng(3)
        data = rng.integers(0, 1 << 16, VLEN, dtype=np.uint16)
        core.vr_write(5, data)
        assert vr_checksum(core, 5, scratch=10) == host_checksum(data)

    def test_vr_parity_matches_host(self):
        core = APUDevice().core
        rng = np.random.default_rng(4)
        data = rng.integers(0, 1 << 16, VLEN, dtype=np.uint16)
        core.vr_write(5, data)
        assert vr_parity(core, 5, 10, 11) == parity_tag(data)

    def test_single_flip_always_shifts_checksum(self):
        core = APUDevice().core
        data = np.zeros(VLEN, dtype=np.uint16)
        core.vr_write(5, data)
        clean = vr_checksum(core, 5, scratch=10)
        for bit in range(16):
            data[123] = np.uint16(1 << bit)
            core.vr_write(5, data)
            # +/- 2**b is never 0 mod 2**16 for b < 16: every single-bit
            # flip of an accumulator is visible to the checksum.
            assert vr_checksum(core, 5, scratch=10) != clean
            data[123] = 0


class TestProtectedCopy:
    def test_clean_copy_single_attempt(self):
        core = APUDevice().core
        core.vr_write(2, np.arange(VLEN, dtype=np.uint16))
        assert protected_cpy_16(core, 3, 2) == 1
        assert np.array_equal(core.vr_read(3), core.vr_read(2))

    def test_flip_on_destination_healed(self):
        core = APUDevice().core
        data = np.arange(VLEN, dtype=np.uint16)
        core.vr_write(2, data)
        core.sdc = MemoryFaultInjector(flips=(
            BitFlipFault(shard_id=0, t_s=0.0, target="vr", vr=3,
                         bit=8, element=77),))
        assert protected_cpy_16(core, 3, 2) == 2
        assert np.array_equal(core.vr_read(3), data)

    def test_stuck_destination_exhausts_budget(self):
        core = APUDevice().core
        core.vr_write(2, np.zeros(VLEN, dtype=np.uint16))
        core.sdc = MemoryFaultInjector(stuck=(
            BitFlipFault(shard_id=0, t_s=0.0, target="stuck", vr=3,
                         bit=0, element=0),))
        with pytest.raises(IntegrityError, match="stuck"):
            protected_cpy_16(core, 3, 2, max_retries=2)


class TestCheckedDMA:
    def _loaded_core(self):
        core = APUDevice().core
        handle = core.l4.alloc(core.params.vr_bytes)
        data = np.arange(VLEN, dtype=np.uint16)
        core.l4.write(handle, data)
        return core, handle, data

    def test_clean_transfer_single_attempt(self):
        core, handle, data = self._loaded_core()
        assert checked_l4_to_l1(core, 0, handle) == 1
        assert np.array_equal(core.l1.load(0), data)

    def test_burst_error_forces_retransfer(self):
        core, handle, data = self._loaded_core()
        core.sdc = MemoryFaultInjector(flips=(
            BitFlipFault(shard_id=0, t_s=0.0, target="dma", bit=3,
                         element=200, burst_bits=4),))
        assert checked_l4_to_l1(core, 0, handle) == 2
        assert np.array_equal(core.l1.load(0), data)

    def test_persistent_corruption_raises(self):
        core, handle, _ = self._loaded_core()
        flips = tuple(
            BitFlipFault(shard_id=0, t_s=0.0, target="dma", bit=0,
                         element=i, burst_bits=1) for i in range(5))
        core.sdc = MemoryFaultInjector(flips=flips)
        with pytest.raises(IntegrityError, match="still corrupt"):
            checked_l4_to_l1(core, 0, handle, max_retries=2)


class TestScrubPass:
    def test_detects_upset_at_rest(self):
        core = APUDevice().core
        data = np.arange(VLEN, dtype=np.uint16)
        core.l1.store(7, data)
        core.l1.store(8, data[::-1].copy())
        crcs = {7: crc16(core.l1.load(7)), 8: crc16(core.l1.load(8))}
        assert scrub_pass(core, crcs) == []
        core.l1.corrupt(7, element=31, bit=2)
        assert scrub_pass(core, crcs) == [7]
        # Repair (rewrite from the master copy) makes the next pass
        # clean again.
        core.l1.store(7, data)
        assert scrub_pass(core, crcs) == []

    def test_charges_per_slot(self):
        core = APUDevice().core
        core.l1.store(0, np.zeros(VLEN, dtype=np.uint16))
        crcs = {0: crc16(core.l1.load(0))}
        before = core.trace.total_cycles
        scrub_pass(core, crcs)
        expected = get_cost_model(core.params).crc_cycles(
            core.params.vr_bytes)
        assert core.trace.total_cycles - before == pytest.approx(expected)


class TestConfigAndCosts:
    @pytest.mark.parametrize("kwargs", [
        dict(enabled="yes"),
        dict(max_recomputes=0),
        dict(scrub_interval_s=-1.0),
        dict(scrub_interval_s=float("nan")),
        dict(scrub_interval_s=float("inf")),
        dict(scrub_vrs=0),
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises((TypeError, ValueError)):
            IntegrityConfig(**kwargs)

    def test_scrubbing_requires_enabled_and_interval(self):
        assert not IntegrityConfig().scrubbing
        assert not IntegrityConfig(enabled=True).scrubbing
        assert not IntegrityConfig(scrub_interval_s=1.0).scrubbing
        assert IntegrityConfig(enabled=True, scrub_interval_s=1.0).scrubbing

    def test_cost_model_calibrated_and_cached(self):
        costs = get_cost_model(DEFAULT_PARAMS)
        assert costs is get_cost_model(DEFAULT_PARAMS)
        # Calibration runs the real GVML checker sequences, so every
        # cost is a positive cycle count.
        assert costs.checksum_cycles > 0
        assert costs.parity_cycles > 0
        assert costs.crc_cycles(DEFAULT_PARAMS.vr_bytes) \
            == DEFAULT_PARAMS.vr_bytes / 4.0
        assert costs.scrub_pass_cycles(8) \
            == 8 * costs.crc_cycles(DEFAULT_PARAMS.vr_bytes)
        assert costs.scrub_pass_seconds(8) > 0
        assert costs.checksum_seconds() \
            == pytest.approx(costs.checksum_cycles
                             / DEFAULT_PARAMS.clock_hz)

    def test_calibration_emits_no_trace_events(self):
        from repro.obs import collecting

        with collecting() as trace:
            from repro.integrity.config import IntegrityCostModel
            IntegrityCostModel(DEFAULT_PARAMS)
        assert trace.total_events == 0


class TestScrubVRBounds:
    """Regression: scrub_vrs is bounded by the 24 architectural VRs."""

    def test_scrub_vrs_at_architectural_limit_ok(self):
        assert IntegrityConfig(scrub_vrs=24).scrub_vrs == 24

    def test_scrub_vrs_beyond_vr_file_rejected(self):
        with pytest.raises(ValueError, match="24 architectural VRs"):
            IntegrityConfig(scrub_vrs=25)
