"""Synthetic generators: determinism, arrival shapes, and mixes."""

import math

import pytest

from repro.cli import main
from repro.errors import SchedulingError
from repro.sim.rng import stream
from repro.workloads import (
    BurstyArrivals,
    DiurnalArrivals,
    FixedGapArrivals,
    HeavyTailedMix,
    PaperWorkload,
    PoissonArrivals,
    SyntheticWorkload,
    UniformMix,
    WeightedMix,
    WorkloadSource,
    make_source,
    materialize,
)


def rng():
    return stream(42, "test-arrivals")


class TestArrivalProcesses:
    def test_fixed_gap_is_paper_cadence(self):
        times = list(FixedGapArrivals(90.0).times(rng(), 4))
        assert times == [0.0, 90.0, 180.0, 270.0]

    def test_poisson_monotonic_and_mean(self):
        times = list(PoissonArrivals(0.1).times(rng(), 2000))
        assert all(b >= a for a, b in zip(times, times[1:]))
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(10.0, rel=0.15)

    def test_diurnal_monotonic_and_rate(self):
        # A short period so the sample spans many whole day/night cycles,
        # where the time-average rate equals the base rate.
        times = list(DiurnalArrivals(0.05, amplitude=0.8,
                                     period=2_000.0).times(rng(), 2000))
        assert all(b >= a for a, b in zip(times, times[1:]))
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(20.0, rel=0.25)

    def test_bursty_structure(self):
        times = list(BurstyArrivals(burst_size=4, burst_gap=10_000.0,
                                    intra_gap=1.0).times(rng(), 12))
        assert all(b >= a for a, b in zip(times, times[1:]))
        # Jobs within one burst are exactly intra_gap apart.
        assert times[1] - times[0] == pytest.approx(1.0)
        assert times[3] - times[0] == pytest.approx(3.0)
        # Bursts are separated by a long idle stretch.
        assert times[4] - times[3] > 100.0

    def test_parameter_validation(self):
        with pytest.raises(SchedulingError):
            PoissonArrivals(0.0)
        with pytest.raises(SchedulingError):
            DiurnalArrivals(1.0, amplitude=1.5)
        with pytest.raises(SchedulingError):
            BurstyArrivals(burst_size=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("build", [
        lambda x: FixedGapArrivals(gap=x),
        lambda x: PoissonArrivals(rate=x),
        lambda x: DiurnalArrivals(rate=x),
        lambda x: DiurnalArrivals(1.0, period=x),
        lambda x: BurstyArrivals(burst_gap=x),
        lambda x: BurstyArrivals(intra_gap=x),
    ], ids=["gap", "poisson-rate", "diurnal-rate", "period", "burst-gap",
            "intra-gap"])
    def test_nan_and_inf_parameters_are_rejected(self, build, bad):
        with pytest.raises(SchedulingError):
            build(bad)

    @pytest.mark.parametrize("source, rate", [("poisson", "nan"),
                                              ("diurnal", "nan"),
                                              ("poisson", "inf")])
    def test_cli_rejects_a_non_finite_rate(self, capsys, source, rate):
        argv = ["workloads", "run", "--source", source, "--jobs", "3",
                "--rate", rate]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: rate must be positive, got {rate}\n"


class TestMixes:
    def test_uniform_mix_matches_paper_ranges(self):
        mix = UniformMix()
        r = stream(0, "test-mix")
        for _ in range(200):
            size, priority, steps = mix.sample(r)
            assert size.name in ("small", "medium", "large", "xlarge")
            assert 1 <= priority <= 5
            assert steps == size.timesteps

    def test_weighted_mix_respects_weights(self):
        mix = WeightedMix({"small": 1.0, "xlarge": 0.0})
        r = stream(0, "test-mix")
        assert all(mix.sample(r)[0].name == "small" for _ in range(50))

    def test_weighted_mix_validation(self):
        with pytest.raises(SchedulingError):
            WeightedMix({})
        with pytest.raises(SchedulingError):
            WeightedMix({"small": 0.0})

    def test_heavy_tailed_mix_skews_small(self):
        mix = HeavyTailedMix()
        r = stream(7, "test-mix")
        draws = [mix.sample(r) for _ in range(400)]
        counts = {}
        for size, _p, _s in draws:
            counts[size.name] = counts.get(size.name, 0) + 1
        assert counts["small"] > counts.get("xlarge", 0)
        # The stretch factor produces jobs longer than the class nominal.
        assert any(steps > size.timesteps for size, _p, steps in draws)
        # ... but never beyond the clamp.
        for size, _p, steps in draws:
            assert steps <= size.timesteps * 8.0 + 1


class TestSyntheticWorkload:
    def test_deterministic_under_seed(self):
        def build():
            return SyntheticWorkload(
                50, PoissonArrivals(0.02), HeavyTailedMix(), seed=9
            )

        assert materialize(build()) == materialize(build())

    def test_different_seeds_differ(self):
        a = SyntheticWorkload(20, PoissonArrivals(0.02), seed=1)
        b = SyntheticWorkload(20, PoissonArrivals(0.02), seed=2)
        assert materialize(a) != materialize(b)

    def test_mix_and_arrival_streams_independent(self):
        # Changing the mix must not perturb the arrival times.
        a = SyntheticWorkload(30, PoissonArrivals(0.02), UniformMix(), seed=5)
        b = SyntheticWorkload(30, PoissonArrivals(0.02), HeavyTailedMix(), seed=5)
        assert [s.time for s in a.submissions()] == [s.time for s in b.submissions()]

    def test_sources_satisfy_protocol(self):
        assert isinstance(SyntheticWorkload(4), WorkloadSource)
        assert isinstance(PaperWorkload(num_jobs=4), WorkloadSource)

    def test_paper_workload_matches_legacy_generator(self):
        from repro.schedsim import WorkloadSpec, generate_workload

        spec = WorkloadSpec(num_jobs=16, submission_gap=90.0, seed=3)
        assert materialize(PaperWorkload(spec)) == generate_workload(spec)

    def test_make_source_factory(self):
        for kind in ("paper", "poisson", "diurnal", "bursty", "heavy"):
            source = make_source(kind, jobs=5, seed=1, gap=30.0)
            subs = materialize(source)
            assert len(subs) == 5
        with pytest.raises(SchedulingError):
            make_source("nope")
        with pytest.raises(SchedulingError):
            make_source("swf")  # needs --trace
        with pytest.raises(SchedulingError):
            make_source("poisson", gap=0.0)  # no rate interpretation
        assert make_source("paper", gap=0.0)  # fixed-gap: 0 is legal
