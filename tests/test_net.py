"""Unit tests for the RPC channel and the calibrated cost model."""

from __future__ import annotations

import pytest

from repro.db.functions import WorkCounters
from repro.net import CostModel1994, RpcChannel
from repro.storage import IOStats


class TestRpcChannel:
    def test_chunking(self):
        rpc = RpcChannel(chunk_size=1024)
        record = rpc.send(b"x" * 3000)
        assert record.data_messages == 3
        assert record.messages == 3 + rpc.control_messages_per_call

    def test_exact_multiple(self):
        rpc = RpcChannel(chunk_size=1024)
        assert rpc.send(b"x" * 2048).data_messages == 2

    def test_empty_payload(self):
        rpc = RpcChannel()
        record = rpc.send(b"")
        assert record.data_messages == 0
        assert record.messages == rpc.control_messages_per_call

    def test_int_payload_size(self):
        rpc = RpcChannel(chunk_size=1000)
        assert rpc.send(2500).data_messages == 3

    def test_cumulative_counters(self):
        rpc = RpcChannel(chunk_size=100)
        rpc.send(b"a" * 250)
        rpc.send(b"b" * 50)
        assert rpc.total_calls == 2
        assert rpc.total_bytes == 300
        assert rpc.total_messages == 3 + 1 + 2 * rpc.control_messages_per_call

    def test_reset(self):
        rpc = RpcChannel()
        rpc.send(b"xyz")
        rpc.reset()
        assert rpc.total_bytes == 0

    def test_process_counters_sum_every_channel_once(self):
        import gc

        from repro.obs import metrics

        messages = metrics.counter("rpc.messages")
        before = messages.value
        kept, dropped = RpcChannel(chunk_size=100), RpcChannel(chunk_size=100)
        dropped.send(250)  # equal traffic lists: retiring one keeps the other
        kept.send(250)
        del dropped
        gc.collect()
        kept.send(50)
        kept.reset()  # a channel's own totals restart; the process's do not
        control = kept.control_messages_per_call
        assert messages.value - before == 2 * (3 + control) + (1 + control)
        assert kept.total_messages == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RpcChannel(chunk_size=0)
        with pytest.raises(ValueError):
            RpcChannel().send(-1)

    def test_paper_q1_message_count_shape(self):
        """Q1 ships ~2 MB and the paper reports 2103 messages; with 1 KiB
        chunks we land within a few percent."""
        rpc = RpcChannel(chunk_size=1024)
        record = rpc.send(2097152 + 8 + 64)  # values + one run + headers
        assert abs(record.messages - 2103) / 2103 < 0.05


class TestCostModel:
    @pytest.fixture
    def model(self):
        return CostModel1994()

    def test_starburst_real_exceeds_cpu(self, model):
        """The paper's key observation: the DB is I/O bound."""
        work = WorkCounters(runs_processed=1000, voxels_extracted=100000)
        io = IOStats(pages_read=500)
        cpu = model.starburst_cpu_seconds(work, io)
        real = model.starburst_real_seconds(work, io)
        assert real > 5 * cpu

    def test_io_dominates_real_time(self, model):
        work = WorkCounters()
        io = IOStats(pages_read=513)
        real = model.starburst_real_seconds(work, io)
        assert real == pytest.approx(
            model.starburst_cpu_seconds(work, io) + 513 * model.seconds_per_page_io
        )

    def test_network_time_q1_magnitude(self, model):
        """Q1: 2103 messages, ~2.1 MB -> the paper's 24.8 s within ~15%."""
        from repro.net.rpc import TransferRecord

        record = TransferRecord(payload_bytes=2097160, data_messages=2049, control_messages=4)
        t = model.network_seconds(record)
        assert 20.0 < t < 28.0

    def test_import_cpu_q1_magnitude(self, model):
        """Q1: 2,097,152 voxels imported in ~10.4 s CPU."""
        t = model.import_cpu_seconds(2097152, 1)
        assert 9.0 < t < 12.0

    def test_render_grows_with_voxels(self, model):
        assert model.render_seconds(2097152) > model.render_seconds(1000)

    def test_render_base_cost(self, model):
        assert model.render_seconds(0) == pytest.approx(model.render_base)

    def test_more_data_more_time_everywhere(self, model):
        small_io, big_io = IOStats(pages_read=10), IOStats(pages_read=500)
        work = WorkCounters()
        assert model.starburst_real_seconds(work, big_io) > model.starburst_real_seconds(
            work, small_io
        )
