"""Unit tests for the HDD array and SSD device models."""

import pytest

from repro.harness.run import RunSpec, execute
from repro.sim import Environment
from repro.storage import HddArray, IoKind, IORequest, Ssd
from repro.storage.device import TrafficRecorder
from repro.telemetry import Telemetry
from tests.conftest import drive


class TestHddStriping:
    def test_disk_of_rotates_by_stripe(self, env):
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        assert hdd.disk_of(0) == 0
        assert hdd.disk_of(7) == 0
        assert hdd.disk_of(8) == 1
        assert hdd.disk_of(32) == 0

    def test_lba_is_per_drive_contiguous(self, env):
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        # Drive 1 holds addresses 8..15, 40..47, ... -> LBAs 0..7, 8..15.
        assert hdd.lba_of(8) == 0
        assert hdd.lba_of(15) == 7
        assert hdd.lba_of(40) == 8

    def test_split_respects_stripe_boundaries(self, env):
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        fragments = hdd._split(IORequest(IoKind.SEQUENTIAL_READ, 6, 10))
        assert [(f.address, f.npages) for f in fragments] == [(6, 2), (8, 8)]

    def test_single_stripe_request_not_split(self, env):
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        request = IORequest(IoKind.SEQUENTIAL_READ, 8, 8)
        assert hdd._split(request) == [request]

    def test_ndisks_validation(self, env):
        with pytest.raises(ValueError):
            HddArray(env, ndisks=0)


class TestHddTiming:
    def test_random_read_latency_near_8ms(self, env):
        hdd = HddArray(env)
        request = drive(env, self._one(env, hdd,
                                       IORequest(IoKind.RANDOM_READ, 4096)))
        assert request.latency == pytest.approx(8 / 1015, rel=0.01)

    def test_second_adjacent_read_avoids_seek(self, env):
        hdd = HddArray(env)
        first = IORequest(IoKind.RANDOM_READ, 0)
        second = IORequest(IoKind.RANDOM_READ, 1)
        drive(env, self._one(env, hdd, first))
        drive(env, self._one(env, hdd, second))
        assert second.latency < first.latency / 5

    def test_far_jump_on_same_disk_seeks_again(self, env):
        hdd = HddArray(env, ndisks=8, stripe_pages=8)
        first = IORequest(IoKind.RANDOM_READ, 0)
        far = IORequest(IoKind.RANDOM_READ, 64 * 100)  # disk 0, far LBA
        drive(env, self._one(env, hdd, first))
        drive(env, self._one(env, hdd, far))
        assert far.latency == pytest.approx(first.latency, rel=0.05)

    def test_multipage_spans_disks_in_parallel(self, env):
        hdd = HddArray(env, ndisks=8, stripe_pages=8)
        wide = IORequest(IoKind.SEQUENTIAL_READ, 0, 64)  # one stripe row
        narrow = IORequest(IoKind.SEQUENTIAL_READ, 0, 8)
        t_wide = self._elapsed(hdd, wide)
        t_narrow = self._elapsed(HddArray(Environment(), 8, 8), narrow)
        # 64 pages over 8 drives should take about as long as 8 on one.
        assert t_wide < t_narrow * 2

    @staticmethod
    def _one(env, device, request):
        yield device.submit(request)
        return request

    def _elapsed(self, device, request):
        env = device.env
        start = env.now
        drive(env, self._one(env, device, request))
        return env.now - start


class TestSsdTiming:
    def test_random_read_latency(self, env):
        ssd = Ssd(env)
        request = IORequest(IoKind.RANDOM_READ, 123)

        def proc():
            yield ssd.submit(request)

        drive(env, proc())
        assert request.latency == pytest.approx(8 / 12_182, rel=0.01)

    def test_sequential_cheaper_than_random(self, env):
        ssd = Ssd(env)
        random_req = IORequest(IoKind.RANDOM_READ, 0)
        seq_req = IORequest(IoKind.SEQUENTIAL_READ, 0)
        assert ssd.service_time(seq_req) < ssd.service_time(random_req)

    def test_channel_scaling_preserves_aggregate(self, env):
        narrow = Ssd(env, channels=4)
        wide = Ssd(env, channels=16)
        request = IORequest(IoKind.RANDOM_READ, 0)
        # aggregate IOPS = channels / service: equal by construction.
        assert 4 / narrow.service_time(request) == pytest.approx(
            16 / wide.service_time(request), rel=0.001)

    def test_pending_counts_from_submit_to_completion(self, env):
        ssd = Ssd(env, channels=2)
        for i in range(5):
            ssd.submit(IORequest(IoKind.RANDOM_READ, i))
        assert ssd.pending == 5  # counted at submit time (throttle, §3.3.2)
        env.run()
        assert ssd.pending == 0


class TestStats:
    def test_read_write_page_counts(self, env):
        ssd = Ssd(env)

        def proc():
            yield ssd.read(0, npages=2)
            yield ssd.write(5, npages=3)

        drive(env, proc())
        assert ssd.stats.pages_read == 2
        assert ssd.stats.pages_written == 3
        assert ssd.stats.completed == 2

    def test_by_kind_histogram(self, env):
        ssd = Ssd(env)

        def proc():
            yield ssd.read(0, random=True)
            yield ssd.read(1, random=False)
            yield ssd.write(2, random=True)

        drive(env, proc())
        assert ssd.stats.by_kind[IoKind.RANDOM_READ] == 1
        assert ssd.stats.by_kind[IoKind.SEQUENTIAL_READ] == 1
        assert ssd.stats.by_kind[IoKind.RANDOM_WRITE] == 1

    def test_striped_request_counts_per_disk_ios(self, env):
        """A request spanning two stripe units is two per-disk I/Os, in
        ``DeviceStats`` and in the registry alike."""
        telemetry = Telemetry()
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        hdd.attach_telemetry(telemetry)
        drive(env, wait_for(hdd.write(4, npages=12, random=False)))
        family = telemetry.registry.get("io_requests_total")
        requests = family.labels(device="hdd-array", kind="sequential_write")
        assert hdd.stats.by_kind[IoKind.SEQUENTIAL_WRITE] == 2
        assert requests.value == 2
        pages = telemetry.registry.get("io_pages_total").labels(
            device="hdd-array", kind="sequential_write")
        assert pages.value == hdd.stats.pages_written == 12

    def test_hdd_registry_matches_stats_in_a_run(self):
        """LC's multi-page write-backs span stripe units: the registry
        once counted 10 logical requests where the array's stats counted
        45 per-disk I/Os."""
        telemetry = Telemetry()
        result = execute(RunSpec(kind="oltp", benchmark="tpcc", scale=20,
                                 design="LC", profile="tiny", duration=4.0,
                                 nworkers=8, checkpoint_interval=1.0),
                         telemetry=telemetry)
        stats = result.system.data_device.stats
        requests = telemetry.registry.get("io_requests_total").labels(
            device="hdd-array", kind="sequential_write")
        assert stats.by_kind[IoKind.SEQUENTIAL_WRITE] == 45
        assert requests.value == 45


def wait_for(event):
    """A process that waits for one device event."""
    yield event


class TestTrafficRecorder:
    def test_buckets_by_completion_time(self):
        recorder = TrafficRecorder(bucket_seconds=1.0)
        recorder.record(0.5, IORequest(IoKind.RANDOM_READ, 0, 4))
        recorder.record(1.5, IORequest(IoKind.RANDOM_WRITE, 0, 2))
        series = recorder.series()
        assert len(series) == 2
        t0, read0, write0 = series[0]
        assert read0 > 0 and write0 == 0
        __, read1, write1 = series[1]
        assert read1 == 0 and write1 > 0

    def test_validates_bucket_size(self):
        import pytest
        with pytest.raises(ValueError):
            TrafficRecorder(0)

    def test_attach_to_device(self, env):
        ssd = Ssd(env)
        recorder = ssd.attach_traffic_recorder(1.0)

        def proc():
            yield ssd.read(0, npages=8)

        drive(env, proc())
        assert recorder.series()
