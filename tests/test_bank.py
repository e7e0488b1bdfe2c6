"""Unit tests for the bank state machine."""

import pytest

from repro.dram.bank import Bank, TimingViolation


@pytest.fixture
def bank(timings):
    return Bank(timings=timings)


class TestActivate:
    def test_opens_row(self, bank):
        bank.activate(5, 0)
        assert bank.is_open
        assert bank.open_row == 5
        assert bank.act_cycle == 0

    def test_rejects_double_open(self, bank, timings):
        bank.activate(5, 0)
        with pytest.raises(TimingViolation):
            bank.activate(6, timings.tRC)

    def test_enforces_trc(self, bank, timings):
        bank.activate(5, 0)
        bank.precharge(timings.tRAS)
        with pytest.raises(TimingViolation):
            bank.activate(6, timings.tRC - 1)
        bank.activate(6, timings.tRC)


class TestPrecharge:
    def test_enforces_tras(self, bank, timings):
        bank.activate(5, 0)
        with pytest.raises(TimingViolation):
            bank.precharge(timings.tRAS - 1)
        assert bank.precharge(timings.tRAS) == timings.tRAS

    def test_rejects_closed(self, bank):
        with pytest.raises(TimingViolation):
            bank.precharge(100)

    def test_minimum_access_is_one_trc(self, bank, timings):
        # tRAS + tPRE == tRC: a minimal access is exactly one EACT.
        bank.activate(5, 0)
        bank.precharge(timings.tRAS)
        assert timings.tRAS + timings.tPRE == timings.tRC


class TestColumnAccess:
    def test_requires_open_row(self, bank):
        with pytest.raises(TimingViolation):
            bank.column_access(10)

    def test_enforces_trcd(self, bank, timings):
        bank.activate(5, 0)
        with pytest.raises(TimingViolation):
            bank.column_access(timings.tRCD - 1)
        data = bank.column_access(timings.tRCD)
        assert data == timings.tRCD + timings.tCAS

    def test_enforces_tccd(self, bank, timings):
        bank.activate(5, 0)
        bank.column_access(timings.tRCD)
        with pytest.raises(TimingViolation):
            bank.column_access(timings.tRCD + 1)
        bank.column_access(timings.tRCD + timings.tCCD)


class TestRefreshAndRfm:
    def test_refresh_blocks_bank(self, bank, timings):
        done = bank.refresh(0)
        assert done == timings.tRFC
        with pytest.raises(TimingViolation):
            bank.activate(1, done - 1)
        bank.activate(1, done)

    def test_refresh_requires_closed_row(self, bank):
        bank.activate(5, 0)
        with pytest.raises(TimingViolation):
            bank.refresh(200)

    def test_rfm_blocks_for_trfm(self, bank, timings):
        assert bank.rfm(0) == timings.tRFM

    def test_block_until(self, bank, timings):
        bank.block_until(500)
        with pytest.raises(TimingViolation):
            bank.activate(1, 499)
        bank.activate(1, 500)

    def test_block_until_requires_closed(self, bank):
        bank.activate(5, 0)
        with pytest.raises(TimingViolation):
            bank.block_until(1000)
