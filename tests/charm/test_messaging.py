"""Tests for chare arrays, proxies, messaging, and quiescence."""

import gc

import pytest

from repro.charm import CharmRuntime, Chare, payload_bytes, ENVELOPE_HEADER_BYTES
from repro.charm.commlayer import MPI_LAYER
from repro.errors import CharmError

from tests.charm.conftest import Counter, settle

import numpy as np


class TestArrayCreation:
    def test_create_array_places_all_elements(self, engine, rts):
        proxy = rts.create_array(Counter, range(8))
        engine.run()
        assert len(rts.array(proxy.array_id).indices) == 8
        population = rts.stats()["population"]
        assert sum(population.values()) == 8

    def test_block_mapping_is_contiguous(self, engine, rts):
        proxy = rts.create_array(Counter, range(8), mapping="block")
        pes = [rts.location_of(proxy.array_id, i) for i in range(8)]
        assert pes == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_roundrobin_mapping(self, engine, rts):
        proxy = rts.create_array(Counter, range(8), mapping="roundrobin")
        pes = [rts.location_of(proxy.array_id, i) for i in range(8)]
        assert pes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_uneven_block_mapping(self, engine, rts):
        proxy = rts.create_array(Counter, range(6), mapping="block")
        pes = [rts.location_of(proxy.array_id, i) for i in range(6)]
        assert pes == [0, 0, 1, 1, 2, 3]

    def test_overdecomposition_allowed(self, engine):
        rts = CharmRuntime(engine, num_pes=2)
        proxy = rts.create_array(Counter, range(32))
        assert rts.array(proxy.array_id).num_elements == 32

    def test_non_chare_class_rejected(self, engine, rts):
        class NotAChare:
            pass

        with pytest.raises(CharmError):
            rts.create_array(NotAChare, range(2))

    def test_duplicate_indices_rejected(self, engine, rts):
        with pytest.raises(CharmError):
            rts.create_array(Counter, [0, 1, 1])

    def test_empty_array_rejected(self, engine, rts):
        with pytest.raises(CharmError):
            rts.create_array(Counter, [])

    def test_tuple_indices(self, engine, rts):
        proxy = rts.create_array(Counter, [(i, j) for i in range(2) for j in range(2)])
        assert rts.element(proxy.array_id, (1, 1)).index == (1, 1)


class TestMessaging:
    def test_point_to_point_send(self, engine, rts):
        proxy = rts.create_array(Counter, range(4))
        proxy[2].ping()
        settle(engine, rts)
        assert rts.element(proxy.array_id, 2).count == 1
        assert rts.element(proxy.array_id, 0).count == 0

    def test_broadcast_reaches_everyone(self, engine, rts):
        proxy = rts.create_array(Counter, range(8))
        proxy.broadcast("ping")
        settle(engine, rts)
        assert all(c.count == 1 for c in rts.elements(proxy.array_id))

    def test_chare_to_chare_forwarding(self, engine, rts):
        proxy = rts.create_array(Counter, range(4))
        proxy[0].ping_and_forward(3)
        settle(engine, rts)
        assert rts.element(proxy.array_id, 0).count == 1
        assert rts.element(proxy.array_id, 3).count == 1

    def test_messages_take_virtual_time(self, engine, rts):
        proxy = rts.create_array(Counter, range(4))
        proxy[0].ping()
        t = settle(engine, rts)
        assert t > 0.0

    def test_charged_compute_advances_clock(self, engine, rts):
        proxy = rts.create_array(Counter, range(1), kwargs={"cost": 0.5})
        proxy[0].ping()
        t = settle(engine, rts)
        assert t >= 0.5

    def test_unknown_entry_method_raises(self, engine, rts):
        proxy = rts.create_array(Counter, range(1))
        proxy[0].no_such_method()
        with pytest.raises(CharmError, match="no entry method"):
            engine.run()

    def test_section_proxies(self, engine, rts):
        proxy = rts.create_array(Counter, range(8))
        for ep in proxy.section([1, 3, 5]):
            ep.ping()
        settle(engine, rts)
        counts = [rts.element(proxy.array_id, i).count for i in range(8)]
        assert counts == [0, 1, 0, 1, 0, 1, 0, 0]

    def test_load_accounting(self, engine, rts):
        proxy = rts.create_array(Counter, range(4), kwargs={"cost": 0.1})
        for _ in range(3):
            proxy[1].ping()
        settle(engine, rts)
        loads = rts.chare_loads()
        assert loads[(proxy.array_id, 1)] == pytest.approx(0.3)
        assert loads[(proxy.array_id, 0)] == pytest.approx(0.0, abs=1e-6)


class TestQuiescence:
    def test_quiescent_initially(self, engine, rts):
        assert rts.quiescent

    def test_not_quiescent_with_inflight(self, engine, rts):
        proxy = rts.create_array(Counter, range(2))
        proxy[0].ping()
        assert not rts.quiescent

    def test_wait_quiescence_fires_when_drained(self, engine, rts):
        proxy = rts.create_array(Counter, range(4))
        proxy.broadcast("ping")
        settle(engine, rts)
        assert rts.quiescent

    def test_wait_quiescence_immediate_if_quiet(self, engine, rts):
        ev = rts.wait_quiescence()
        assert ev.triggered

    def test_cascading_messages_counted(self, engine, rts):
        proxy = rts.create_array(Counter, range(4))
        proxy[0].ping_and_forward(1)
        proxy[1].ping_and_forward(2)
        settle(engine, rts)
        total = sum(c.count for c in rts.elements(proxy.array_id))
        assert total == 4
        assert rts.quiescent


class TestClose:
    def test_close_frees_the_runtime_and_keeps_its_width(self, engine, rts):
        proxy = rts.create_array(Counter, range(8))
        proxy.broadcast("ping")
        settle(engine, rts)
        chares = rts.elements(proxy.array_id)
        loops = [pe._process for pe in rts.pes]
        gc.collect()
        gc.disable()
        try:
            rts.close()
            engine.run()
            assert rts.num_pes == 4 and rts.pes == []
            assert all(loop.triggered for loop in loops)
            assert all(c._rts is None and c.count == 1 for c in chares)
            with pytest.raises(CharmError):
                rts.array(proxy.array_id)
            del chares, loops
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPayloadBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, 8),
            (True, 8),
            (7, 8),
            (3.14, 8),
            (b"abcd", 4),
            ("hello", 5),
        ],
    )
    def test_scalars(self, value, expected):
        assert payload_bytes(value) == expected

    def test_numpy_exact(self):
        arr = np.zeros((10, 10), dtype=np.float64)
        assert payload_bytes(arr) == 800

    def test_containers_recurse(self):
        assert payload_bytes([1, 2, 3]) == 16 + 24
        assert payload_bytes({"a": 1}) == 16 + 1 + 8

    def test_envelope_size_includes_header(self, engine, rts):
        from repro.charm import Envelope

        env = Envelope(array_id=0, index=0, method="m", args=(np.zeros(16),))
        assert env.size_bytes == ENVELOPE_HEADER_BYTES + 128


class TestCommLayer:
    def test_latency_scales_with_size(self):
        small = MPI_LAYER.latency(64)
        big = MPI_LAYER.latency(64 * 1024**2)
        assert big > small

    def test_same_node_is_cheaper(self):
        assert MPI_LAYER.latency(64, same_node=True) < MPI_LAYER.latency(64)

    def test_startup_grows_with_pes(self):
        assert MPI_LAYER.startup_time(64) > MPI_LAYER.startup_time(4)

    def test_netlrts_startup_slower_than_mpi(self):
        # The paper's C1: porting rescaling to the MPI layer cut overheads.
        from repro.charm import NETLRTS_LAYER

        for p in (2, 8, 32, 64):
            assert NETLRTS_LAYER.startup_time(p) > MPI_LAYER.startup_time(p)

    def test_barrier_is_logarithmic(self):
        t4 = MPI_LAYER.barrier_time(4)
        t64 = MPI_LAYER.barrier_time(64)
        assert t64 == pytest.approx(t4 * 3)

    def test_layer_by_name(self):
        from repro.charm import layer_by_name

        assert layer_by_name("mpi") is MPI_LAYER
        with pytest.raises(ValueError):
            layer_by_name("tcp")

    def test_bad_startup_count(self):
        with pytest.raises(ValueError):
            MPI_LAYER.startup_time(0)
