import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transit_equity.geo import (
    CandidateRoute,
    CostParams,
    GeoHousehold,
    PovertyGuideline,
    RouteGenerationError,
    Schedule,
    StopSite,
    SyntheticCityParams,
    TransitStop,
    assign_subsidy,
    build_instance,
    cluster_stops,
    eligibility_filter,
    generate_routes,
    great_circle_miles,
    read_geo_households,
    read_poverty_guideline,
    read_transit_stops,
    ride_hail_quarterly_cost,
    route_quarterly_cost,
    synthetic_city,
    write_geo_households,
    write_poverty_guideline,
    write_transit_stops,
)
from transit_equity.model import ProgramKind, inject_ride_hailing

BASE_LAT, BASE_LON = 41.8, -87.7
MILES_PER_DEG_LAT = 3958.7613 * math.pi / 180.0


def reference_haversine(lat1, lon1, lat2, lon2):
    """Independent textbook haversine, kept separate from the library path."""
    r = 3958.7613
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2) - math.radians(lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * r * math.asin(math.sqrt(a))


def at_miles(north, east):
    """Place a point at an offset (miles) from the base coordinate."""
    lat = BASE_LAT + north / MILES_PER_DEG_LAT
    lon = BASE_LON + east / (MILES_PER_DEG_LAT * math.cos(math.radians(BASE_LAT)))
    return lat, lon


def household_at(hid, north, east, income=30000.0, size=3, race="other"):
    lat, lon = at_miles(north, east)
    return GeoHousehold(id=hid, lat=lat, lon=lon, income=income, household_size=size, race=race)


GUIDELINE = PovertyGuideline(thresholds=tuple((s, 10000.0 + 4000.0 * (s - 1)) for s in range(1, 9)))


class TestDistance:
    def test_agrees_with_reference_formula(self, rng):
        for _ in range(50):
            lat1, lat2 = rng.uniform(-60, 60, 2)
            lon1, lon2 = rng.uniform(-170, 170, 2)
            ours = float(great_circle_miles(lat1, lon1, lat2, lon2))
            ref = reference_haversine(lat1, lon1, lat2, lon2)
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_known_city_pair(self):
        # Chicago Loop to Manhattan, great-circle ~ 712 miles
        d = float(great_circle_miles(41.8781, -87.6298, 40.7128, -74.0060))
        assert d == pytest.approx(711.6, abs=1.0)

    def test_mile_offsets_land_where_expected(self):
        lat, lon = at_miles(1.0, 0.0)
        assert float(great_circle_miles(BASE_LAT, BASE_LON, lat, lon)) == pytest.approx(
            1.0, abs=1e-6
        )


class TestEligibility:
    def test_six_point_fixture_keeps_interior(self):
        # one bus stop at the origin, one rail stop 2 miles north; points vary
        # the bus distance (east axis) and rail distance independently
        stops = [
            TransitStop(id="bus", kind="bus", lat=at_miles(0, 0)[0], lon=at_miles(0, 0)[1]),
            TransitStop(id="rail", kind="rail", lat=at_miles(2.0, 0)[0], lon=at_miles(2.0, 0)[1]),
        ]
        households = [
            household_at("bus_too_close", 0.0, 0.24),   # bus 0.24 < 0.25
            household_at("interior_1", 0.0, 0.30),      # bus 0.30, rail ~2.02
            household_at("bus_too_far", 0.0, 3.60),     # bus 3.60 > 3.5
            household_at("rail_too_close", 1.7, 0.40),  # rail ~0.5 boundary breach below
            household_at("interior_2", 0.0, 1.00),      # bus 1.0, rail ~2.24
            household_at("rail_too_far", -2.0, 1.0),    # rail ~4.1 > 3.5
        ]
        # adjust rail_too_close to sit 0.4 miles from rail but >0.25 from bus
        households[3] = household_at("rail_too_close", 1.9, 0.40)
        kept = {h.id for h in eligibility_filter(households, stops)}
        assert kept == {"interior_1", "interior_2"}

    def test_boundaries_are_inclusive(self):
        stops = [
            TransitStop(id="bus", kind="bus", lat=at_miles(0, 0)[0], lon=at_miles(0, 0)[1]),
            TransitStop(id="rail", kind="rail", lat=at_miles(0, 3.0)[0], lon=at_miles(0, 3.0)[1]),
        ]
        # hugging the lower bus bound from above; verify the point really is
        # inside the closed interval as the filter sees it, then keep it
        on_lower = household_at("lower", 0.0, 0.250001)
        d = float(great_circle_miles(on_lower.lat, on_lower.lon, stops[0].lat, stops[0].lon))
        assert 0.25 <= d < 0.2501
        kept = eligibility_filter([on_lower], stops)
        assert [h.id for h in kept] == ["lower"]

    def test_missing_stop_kind_rejected(self):
        bus_only = [TransitStop(id="b", kind="bus", lat=41.8, lon=-87.7)]
        with pytest.raises(ValueError, match="bus and one rail"):
            eligibility_filter([household_at("x", 1, 1)], bus_only)


class TestSubsidy:
    @pytest.mark.parametrize(
        "percent,tier,subsidy",
        [(2.00, 1, 10.0), (1.90, 2, 15.0), (1.00, 3, 20.0)],
    )
    def test_paper_tier_examples(self, percent, tier, subsidy):
        h = household_at("x", 0, 0, income=percent * GUIDELINE.threshold(3), size=3)
        assert assign_subsidy(h, GUIDELINE) == (tier, subsidy)

    @pytest.mark.parametrize(
        "percent,tier",
        [(2.5, 1), (2.0, 1), (1.99, 2), (1.85, 2), (1.80, 2), (1.7501, 2), (1.75, 3), (0.5, 3)],
    )
    def test_total_on_every_band(self, percent, tier):
        h = household_at("x", 0, 0, income=percent * GUIDELINE.threshold(2), size=2)
        assert assign_subsidy(h, GUIDELINE)[0] == tier

    def test_size_outside_table_rejected(self):
        h = household_at("x", 0, 0, size=9)
        with pytest.raises(ValueError, match="beyond the guideline"):
            assign_subsidy(h, GUIDELINE)

    def test_thresholds_must_increase(self):
        with pytest.raises(ValueError, match="increase"):
            PovertyGuideline(thresholds=((1, 10000.0), (2, 9000.0)))

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_threshold_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            PovertyGuideline(thresholds=((1, value), (2, 20000.0)))

    @pytest.mark.parametrize("income", [math.nan, math.inf, -1.0])
    def test_income_must_be_finite_and_nonnegative(self, income):
        # NaN used to get tier 2 and inf tier 1
        with pytest.raises(ValueError, match="income must be finite and >= 0"):
            household_at("x", 0, 0, income=income)


class TestClustering:
    def test_two_nearby_households_share_midpointish_stop(self):
        a = household_at("a", 0.0, 0.0)
        b = household_at("b", 0.0, 0.10)
        sites = cluster_stops([a, b])
        assert len(sites) == 1
        d_a = reference_haversine(a.lat, a.lon, sites[0].lat, sites[0].lon)
        assert d_a == pytest.approx(0.05, abs=0.01)

    def test_isolated_site_filtered(self):
        # two mutually-close clusters survive; the 9-mile outlier is dropped
        cluster_a = [household_at(f"a{k}", 0.0, 0.1 * k) for k in range(2)]
        cluster_b = [household_at(f"b{k}", 0.0, 0.6 + 0.1 * k) for k in range(2)]
        far = household_at("far", 0.0, 9.0)
        sites = cluster_stops(cluster_a + cluster_b + [far])
        assert len(sites) == 2
        assert max(s.lon for s in sites) < at_miles(0, 5.0)[1]

    def test_lone_site_kept(self):
        sites = cluster_stops([household_at("only", 0, 0)])
        assert len(sites) == 1

    def test_cluster_radius_respected(self, rng):
        households = [
            household_at(f"h{k:03d}", rng.uniform(0, 2), rng.uniform(0, 2)) for k in range(120)
        ]
        sites = cluster_stops(households)
        # every household sits within the clustering radius of some site;
        # leader clustering guarantees membership radius <= 0.25 at join time,
        # later centroid drift is bounded by the same radius
        lat = np.array([h.lat for h in households])
        lon = np.array([h.lon for h in households])
        for h_lat, h_lon in zip(lat, lon):
            d = min(
                reference_haversine(h_lat, h_lon, s.lat, s.lon) for s in sites
            )
            assert d <= 0.5


class TestCostModel:
    def test_full_day_route_cost(self):
        assert route_quarterly_cost(Schedule.FULL) == pytest.approx(140.0 * 16 * 91)
        assert route_quarterly_cost(Schedule.FULL) == pytest.approx(203_840.0)

    def test_half_day_is_exactly_half(self):
        assert route_quarterly_cost(Schedule.HALF) == route_quarterly_cost(Schedule.FULL) / 2

    def test_tier3_quarterly_ride_hail(self):
        assert ride_hail_quarterly_cost(3) == pytest.approx(20.0 * 120)
        assert ride_hail_quarterly_cost(1, CostParams(rides_per_quarter=364)) == pytest.approx(3640.0)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            ride_hail_quarterly_cost(4)

    @pytest.mark.parametrize(
        "field, value",
        [("rides_per_quarter", -3), ("hourly_operating_cost", float("nan")),
         ("full_day_hours", float("inf")), ("days_per_quarter", -1),
         ("subsidy_per_ride", (10.0, -15.0, 20.0))],
    )
    def test_bad_cost_parameter_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0, got"):
            CostParams(**{field: value})


def grid_sites(rows, cols, spacing):
    out = []
    for r in range(rows):
        for c in range(cols):
            lat, lon = at_miles(r * spacing, c * spacing)
            out.append(StopSite(id=f"s{r}_{c}", lat=lat, lon=lon))
    return out


class TestRouteGeneration:
    def test_grid_yields_valid_route(self):
        sites = grid_sites(5, 5, 0.5)
        terminal_lat, terminal_lon = at_miles(0.0, -0.5)
        stops = [TransitStop(id="t", kind="bus", lat=terminal_lat, lon=terminal_lon)]
        routes = generate_routes(sites, stops, count=1, rng=0)
        assert len(routes) == 2  # full + half variants of one chain
        for route in routes:
            assert 10 <= len(route.stops) <= 18

    def test_twenty_routes_make_forty_programs(self):
        sites = grid_sites(12, 12, 0.5)
        terminal_lat, terminal_lon = at_miles(3.0, 3.0)
        stops = [TransitStop(id="t", kind="rail", lat=terminal_lat, lon=terminal_lon)]
        routes = generate_routes(sites, stops, count=20, rng=1)
        assert len(routes) == 40
        schedules = {r.daily_hours for r in routes}
        assert schedules == {Schedule.FULL, Schedule.HALF}

    def test_sparse_sites_raise_with_report(self):
        sites = grid_sites(4, 4, 1.0)  # every gap exceeds 0.75 miles
        stops = [TransitStop(id="t", kind="bus", lat=BASE_LAT, lon=BASE_LON)]
        with pytest.raises(RouteGenerationError) as err:
            generate_routes(sites, stops, count=3, rng=0, max_attempts_per_route=5)
        assert err.value.routes == []
        assert "0 of 3" in str(err.value)

    def test_shortfall_reports_chains_not_variants(self):
        sites = grid_sites(5, 5, 0.5)
        terminal_lat, terminal_lon = at_miles(0.0, -0.5)
        stops = [TransitStop(id="t", kind="bus", lat=terminal_lat, lon=terminal_lon)]
        with pytest.raises(ValueError) as err:
            generate_routes(sites, stops, count=10, rng=0, max_attempts_per_route=5)
        assert isinstance(err.value, RouteGenerationError)
        assert err.value.requested == 10
        assert len(err.value.routes) == 12  # six chains, two schedule variants each
        assert "could only generate 6 of 10 requested routes" in str(err.value)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        sites = grid_sites(5, 5, 0.5)
        stops = [TransitStop(id="t", kind="bus", lat=BASE_LAT, lon=BASE_LON)]
        with pytest.raises(ValueError, match=f"route count must be >= 1, got {count}"):
            generate_routes(sites, stops, count=count, rng=0)

    def test_route_validation_rejects_wide_gap(self):
        a = StopSite(id="a", lat=BASE_LAT, lon=BASE_LON)
        far_lat, far_lon = at_miles(0, 1.0)
        chain = [a] + [
            StopSite(id=f"s{k}", lat=far_lat, lon=far_lon + k * 1e-4) for k in range(10)
        ]
        with pytest.raises(ValueError, match="miles apart"):
            CandidateRoute(
                id="r", stops=tuple(chain), daily_hours=Schedule.FULL, quarterly_cost=1.0
            )

    def test_route_validation_rejects_bad_count(self):
        a = StopSite(id="a", lat=BASE_LAT, lon=BASE_LON)
        with pytest.raises(ValueError, match="stops outside"):
            CandidateRoute(id="r", stops=(a,) * 5, daily_hours=Schedule.FULL, quarterly_cost=1.0)


class TestBuildInstance:
    def make_routes_and_households(self):
        households = [
            household_at(f"h{k}", 0.0, 0.05 * k, income=12000.0, size=2, race="blue")
            for k in range(6)
        ] + [
            household_at(f"g{k}", 0.02, 0.05 * k, income=60000.0, size=1, race="green")
            for k in range(6)
        ]
        sites = [StopSite(id=f"s{k}", lat=at_miles(0, 0.3 * k)[0], lon=at_miles(0, 0.3 * k)[1]) for k in range(10)]
        route = CandidateRoute(
            id="route00_full",
            stops=tuple(sites),
            daily_hours=Schedule.FULL,
            quarterly_cost=route_quarterly_cost(Schedule.FULL),
        )
        half = CandidateRoute(
            id="route00_half",
            stops=tuple(sites),
            daily_hours=Schedule.HALF,
            quarterly_cost=route_quarterly_cost(Schedule.HALF),
        )
        return households, [route, half]

    def test_groups_partition_by_race(self):
        households, routes = self.make_routes_and_households()
        inst = build_instance(households, routes, budget=5e5, guideline=GUIDELINE)
        assert inst.groups == ("race:blue", "race:green")
        assert inst.group_sizes.tolist() == [6, 6]

    def test_bus_only_has_no_virtuals(self):
        households, routes = self.make_routes_and_households()
        inst = build_instance(households, routes, budget=5e5, guideline=GUIDELINE)
        assert all(p.kind is ProgramKind.BUS_LINE for p in inst.programs)

    def test_combined_adds_virtuals_for_everyone(self):
        households, routes = self.make_routes_and_households()
        inst = inject_ride_hailing(
            build_instance(households, routes, budget=5e5, guideline=GUIDELINE)
        )
        virtuals = [p for p in inst.programs if p.kind is ProgramKind.VIRTUAL_RIDE_HAIL]
        assert len(virtuals) == len(households)

    def test_half_day_covers_every_other(self):
        households, routes = self.make_routes_and_households()
        inst = build_instance(households, routes, budget=5e5, guideline=GUIDELINE)
        full = next(p for p in inst.programs if p.id.endswith("full"))
        half = next(p for p in inst.programs if p.id.endswith("half"))
        assert len(full.covers) == len(households)
        assert len(half.covers) == math.ceil(len(full.covers) / 2)
        assert half.covers <= full.covers
        assert half.cost == pytest.approx(full.cost / 2)

    def test_ride_hail_costs_follow_tiers(self):
        households, routes = self.make_routes_and_households()
        inst = build_instance(households, routes, budget=5e5, guideline=GUIDELINE)
        by_id = {h.id: h for h in inst.households}
        assert by_id["h0"].ride_hail_cost == pytest.approx(20.0 * 120)  # deep poverty
        assert by_id["g0"].ride_hail_cost == pytest.approx(10.0 * 120)  # well above line


class TestSyntheticCity:
    def test_reproducible(self):
        a_households, a_stops, a_guide = synthetic_city(seed=5)
        b_households, b_stops, b_guide = synthetic_city(seed=5)
        assert a_households == b_households
        assert a_stops == b_stops
        assert a_guide == b_guide
        c_households, _, _ = synthetic_city(seed=6)
        assert c_households != a_households

    def test_pipeline_structural_invariants(self):
        params = SyntheticCityParams(n_households=600, grid_rows=7, grid_cols=7)
        households, stops, guideline = synthetic_city(params, seed=3)
        eligible = eligibility_filter(households, stops)
        assert len(eligible) > 300
        sites = cluster_stops(eligible)
        assert len(sites) >= 20
        routes = generate_routes(sites, stops, count=3, rng=2)
        assert len(routes) == 6
        bus = [s for s in stops if s.kind == "bus"]
        rail = [s for s in stops if s.kind == "rail"]
        for h in eligible:
            bus_d = min(reference_haversine(h.lat, h.lon, s.lat, s.lon) for s in bus)
            rail_d = min(reference_haversine(h.lat, h.lon, s.lat, s.lon) for s in rail)
            assert 0.25 <= bus_d <= 3.5
            assert 0.5 <= rail_d <= 3.5
        for route in routes:
            assert 10 <= len(route.stops) <= 18
            for a, b in zip(route.stops, route.stops[1:]):
                assert reference_haversine(a.lat, a.lon, b.lat, b.lon) <= 0.75 + 1e-9
            last = route.stops[-1]
            terminal = min(
                reference_haversine(last.lat, last.lon, s.lat, s.lon) for s in stops
            )
            assert terminal <= 0.75 + 1e-9


def test_geo_csv_round_trip(tmp_path):
    households, stops, guideline = synthetic_city(
        SyntheticCityParams(n_households=40, grid_rows=3, grid_cols=3), seed=1
    )
    write_geo_households(households, tmp_path / "geo_households.csv")
    write_transit_stops(stops, tmp_path / "transit_stops.csv")
    write_poverty_guideline(guideline, tmp_path / "poverty_guideline.csv")
    assert read_geo_households(tmp_path / "geo_households.csv") == households
    assert read_transit_stops(tmp_path / "transit_stops.csv") == stops
    assert read_poverty_guideline(tmp_path / "poverty_guideline.csv") == guideline


GEO_TEXT = st.text(
    st.one_of(
        st.sampled_from([",", '"', "'", ";", " ", "\n", "\r", "\t", "é", "中", "🚌"]),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=6,
)
LATS, LONS = st.floats(-90, 90), st.floats(-180, 180)


@st.composite
def geo_inputs(draw):
    """Geo households and stops with adversarial ids and race labels, and a guideline."""
    households = draw(
        st.lists(
            st.builds(
                GeoHousehold, id=GEO_TEXT, lat=LATS, lon=LONS, income=st.floats(0, 1e7),
                household_size=st.integers(1, 12), race=GEO_TEXT,
            ),
            max_size=5,
        )
    )
    stops = draw(
        st.lists(
            st.builds(
                TransitStop, id=GEO_TEXT, kind=st.sampled_from(["bus", "rail"]), lat=LATS,
                lon=LONS,
            ),
            max_size=5,
        )
    )
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8, unique=True))
    values = draw(
        st.lists(st.floats(1.0, 1e6), min_size=len(sizes), max_size=len(sizes), unique=True)
    )
    guideline = PovertyGuideline(thresholds=tuple(zip(sorted(sizes), sorted(values))))
    return households, stops, guideline


@given(geo_inputs())
@settings(max_examples=60, deadline=None)
def test_geo_csv_round_trip_with_adversarial_text(inputs):
    households, stops, guideline = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_geo_households(households, tmp / "geo_households.csv")
        write_transit_stops(stops, tmp / "transit_stops.csv")
        write_poverty_guideline(guideline, tmp / "poverty_guideline.csv")
        assert read_geo_households(tmp / "geo_households.csv") == households
        assert read_transit_stops(tmp / "transit_stops.csv") == stops
        assert read_poverty_guideline(tmp / "poverty_guideline.csv") == guideline


def test_geo_csv_header_check(tmp_path):
    path = tmp_path / "geo_households.csv"
    path.write_text("id,lat,lon\nh,41.8,-87.7\n")
    with pytest.raises(ValueError, match="expected header"):
        read_geo_households(path)
