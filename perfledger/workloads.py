"""The benchmark's workloads: fixed city-days and how to replay them.

Each workload names a set of *fixed* city-days (scenario seeds), a policy
and the simulated horizon.  The days are fixed on purpose: the quality
metrics (XDT, delivered share) and every work counter are then identical in
every run, so a change that buys speed with worse dispatch, or that does more
work, shows as an exact difference instead of hiding in seed-to-seed spread
(one CityB dinner peak's mean XDT varies by ~90% IQR/median across seeds).
The run seed drives the measurement schedule instead, see ``run.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import ExperimentSetting
from repro.network.graph import SECONDS_PER_HOUR
from repro.sim.engine import SimulationConfig
from repro.workload.city import CITY_B, CityProfile, metro_profile


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what to replay and how to set it up."""

    name: str
    profile: CityProfile
    policy: str
    scale: float
    #: scenario generation horizon (whole hours, as the generator takes them)
    start_hour: int
    end_hour: int
    #: simulated horizon, from ``start_hour``; may stop before ``end_hour``
    sim_minutes: float
    delta: float
    #: fixed scenario seeds; their windows together form one timed pass
    days: tuple[int, ...]
    traffic: str = "none"
    fleet: str = "none"
    event_resolution: str = "window"
    #: cold set-ups timed per replay (the replay's own one included), so
    #: that many set-up samples spread through the run
    setup_samples: int = 1

    def setting(self, day: int) -> ExperimentSetting:
        return ExperimentSetting(
            self.profile, scale=self.scale, start_hour=self.start_hour,
            end_hour=self.end_hour, delta=self.delta, seed=day,
            traffic=self.traffic, fleet=self.fleet,
            event_resolution=self.event_resolution)

    def sim_config(self) -> SimulationConfig:
        start = self.start_hour * SECONDS_PER_HOUR
        return SimulationConfig(delta=self.delta, start=start,
                                end=start + 60.0 * self.sim_minutes,
                                event_resolution=self.event_resolution)

    @property
    def windows_per_day(self) -> int:
        return int(round(60.0 * self.sim_minutes / self.delta))


_CITYB_DINNER = dict(profile=CITY_B, scale=0.12, start_hour=19, end_hour=22,
                     sim_minutes=180.0, delta=CITY_B.accumulation_window,
                     days=(0, 1), setup_samples=4)

#: 48x48 = 2,304 nodes, above the 2,048-node dense-tier threshold of the
#: distance stack.  Blocks are 0.45 km instead of the generator's 0.18 km so
#: that a rush-hour zone covers ~170 edges instead of ~1,770; at 0.18 km the
#: zone's first application alone costs ~8 s and five replays no longer fit
#: a run.
_METRO = metro_profile(rows=48, cols=48, name="Metro48", block_km=0.45)

#: Why each workload exists: the ``why`` lines of BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(name="cityb-foodmatch", policy="foodmatch", **_CITYB_DINNER),
    Workload(name="cityb-km", policy="km", **_CITYB_DINNER),
    Workload(name="metro-traffic", profile=_METRO, policy="km", scale=0.5,
             start_hour=19, end_hour=20, sim_minutes=50.0, delta=30.0,
             days=(0,), traffic="heavy", fleet="full",
             event_resolution="continuous", setup_samples=2),
)}
