"""Unit tests for the application-driver base class and ASCII rendering."""

import pytest

from repro.apps.base import CharmApplication
from repro.charm import CcsClient, CcsServer, CharmRuntime, Chare
from repro.charm.ccs import CCS_LATENCY
from repro.experiments.ascii import render_chart, render_profile, render_table


class TinyChare(Chare):
    pass


class TinyApp(CharmApplication):
    def __init__(self, **kwargs):
        kwargs.setdefault("name", "tiny")
        kwargs.setdefault("total_steps", 30)
        super().__init__(**kwargs)

    def setup(self, rts):
        self.proxy = rts.create_array(TinyChare, range(4))

    def run_block(self, rts, start, n):
        yield 0.1 * n


class TestDriverEdgeCases:
    def run_to_end(self, engine, app, pes=2, requests=()):
        rts = CharmRuntime(engine, num_pes=pes)
        server = CcsServer(engine)
        app.attach_ccs(server)
        client = CcsClient(engine, server)
        outcomes = {}

        def fire(tag, payload, key):
            def waiter():
                try:
                    outcomes[key] = ("ok", (yield client.request(tag, payload)))
                except Exception as err:  # noqa: BLE001
                    outcomes[key] = ("err", err)

            engine.process(waiter())

        proc = engine.process(app.main(rts))
        for at, tag, payload, key in requests:
            engine.schedule(at, fire, tag, payload, key)
        engine.run()
        assert proc.triggered
        return rts, outcomes

    def test_validation(self):
        with pytest.raises(ValueError):
            TinyApp(total_steps=0)
        with pytest.raises(ValueError):
            TinyApp(sync_every=0)
        with pytest.raises(ValueError):
            TinyApp(disk_checkpoint_every=5)  # requires an ft_store

    def test_status_endpoint(self, engine):
        app = TinyApp()
        _, outcomes = self.run_to_end(
            engine, app, requests=[(1.5, "status", None, "status")]
        )
        kind, value = outcomes["status"]
        assert kind == "ok"
        assert value["name"] == "tiny"
        assert 0 < value["completed_steps"] <= 30
        assert value["total_steps"] == 30
        assert value["num_pes"] == 2

    def test_rescale_in_final_block_rejected(self, engine):
        app = TinyApp(total_steps=30, sync_every=30)
        _, outcomes = self.run_to_end(
            engine, app, requests=[(1.0, "rescale", {"target": 4}, "r")]
        )
        kind, err = outcomes["r"]
        assert kind == "err"
        assert "finished" in str(err)

    def test_rescale_after_finish_rejected_at_once(self, engine):
        # Nobody would ever apply it: the request must not wait out the
        # rescaler's ack timeout.
        app = TinyApp()
        _, outcomes = self.run_to_end(
            engine, app, requests=[(100.0, "rescale", {"target": 4}, "late")]
        )
        kind, err = outcomes["late"]
        assert kind == "err"
        assert "finished" in str(err)
        assert engine.now == pytest.approx(100.0 + 2 * CCS_LATENCY)
        assert not app.rescale_pending

    def test_invalid_rescale_target_rejected(self, engine):
        app = TinyApp()
        _, outcomes = self.run_to_end(
            engine, app, requests=[(0.5, "rescale", {"target": 0}, "bad")]
        )
        assert outcomes["bad"][0] == "err"

    def test_duplicate_pending_rescale_rejected(self, engine):
        app = TinyApp(total_steps=200)
        _, outcomes = self.run_to_end(
            engine, app,
            requests=[
                (0.31, "rescale", {"target": 3}, "first"),
                (0.32, "rescale", {"target": 4}, "second"),
            ],
        )
        kinds = {key: outcomes[key][0] for key in outcomes}
        assert sorted(kinds.values()) == ["err", "ok"]

    def test_record_iterations_off(self, engine):
        app = TinyApp(record_iterations=False)
        self.run_to_end(engine, app)
        assert app.timeline() == []

    def test_progress_property(self, engine):
        app = TinyApp()
        self.run_to_end(engine, app)
        assert app.progress == 1.0


class TestAsciiRendering:
    def test_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # perfectly rectangular

    def test_chart_contains_markers_and_legend(self):
        text = render_chart({"s1": [(0, 1), (1, 2)], "s2": [(0, 2), (1, 1)]})
        assert "*" in text and "o" in text
        assert "*=s1" in text and "o=s2" in text

    def test_chart_log_scale(self):
        text = render_chart({"s": [(1, 0.001), (2, 1000.0)]}, log_y=True)
        assert "1e+03" in text or "1000" in text

    def test_empty_chart(self):
        assert render_chart({}) == "(empty chart)"

    def test_profile_bounds(self):
        text = render_profile([(0.0, 0.0), (50.0, 1.0), (100.0, 0.5)], width=20)
        assert "util |" in text
        assert "100s" in text

    def test_empty_profile(self):
        assert render_profile([]) == "(empty profile)"

    def test_constant_series_chart(self):
        # Degenerate y-span must not divide by zero.
        text = render_chart({"flat": [(0, 5.0), (10, 5.0)]})
        assert "*" in text
