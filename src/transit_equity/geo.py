"""Geospatial ingestion: from household/stop coordinates to a solvable instance.

Pipeline: filter households by walking distance to existing transit, assign
ride-hail subsidy tiers from poverty-guideline ratios, cluster the eligible
households into candidate bus-stop sites, chain sites into candidate routes
(two schedule variants each), and assemble the coverage instance.

Distances are great-circle miles; the guideline sources name walking/travel
distance without a road network, so straight-line is the documented
simplification throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .instance_io import read_rows, write_rows
from .model import Household, Instance, Program, ProgramKind

EARTH_RADIUS_MILES = 3958.7613

BUS_DISTANCE_MILES = (0.25, 3.5)
RAIL_DISTANCE_MILES = (0.5, 3.5)
CLUSTER_RADIUS_MILES = 0.25
# Relative slack at the clustering radius, far above float rounding (about
# 1e-14 relative in a haversine): `cluster_stops` leaves every distance
# within it of the radius to `great_circle_miles`.
CLUSTER_RADIUS_SLACK = 1e-9
# No point farther than this in latitude (degrees) lies within the clustering
# radius: the haversine has a >= sin^2(dphi/2), so d >= R |dphi|. The slack
# covers rounding in a difference of degrees, so a prefilter on it is exact.
CLUSTER_LAT_BAND_DEGREES = (
    math.degrees(CLUSTER_RADIUS_MILES / EARTH_RADIUS_MILES) * (1 + CLUSTER_RADIUS_SLACK)
)
STOP_ISOLATION_MILES = 3.5
# Site pairs per block of the isolation pass. A float64 temporary of 64 KiB
# stays below malloc's default mmap threshold (128 KiB), so the blocks reuse
# heap memory and the pass adds nothing to peak RSS.
ISOLATION_BLOCK_ELEMENTS = 2**13
MAX_STOP_GAP_MILES = 0.75
# Slack on a route's stop gaps, far above rounding in the haversine's miles.
STOP_GAP_SLACK_MILES = 1e-9
ROUTE_STOPS = (10, 18)

TIER_1_MIN_RATIO = 2.00  # at or above: lowest subsidy
TIER_3_MAX_RATIO = 1.75  # at or below: highest subsidy

GEO_HOUSEHOLD_COLUMNS = ["id", "lat", "lon", "income", "household_size", "race"]
TRANSIT_STOP_COLUMNS = ["id", "kind", "lat", "lon"]
POVERTY_GUIDELINE_COLUMNS = ["household_size", "fpl_100"]


class RouteGenerationError(ValueError):
    """The geography supplies fewer routes than requested. `routes` holds
    the ones found, two schedule variants per chained route."""

    def __init__(self, requested: int, routes: list["CandidateRoute"]):
        self.requested = requested
        self.routes = routes
        super().__init__(
            f"could only generate {len(routes) // 2} of {requested} requested routes "
            "under the stop-spacing and terminal constraints"
        )


class Schedule(str, Enum):
    FULL = "full"
    HALF = "half"


@dataclass(frozen=True)
class GeoHousehold:
    id: str
    lat: float
    lon: float
    income: float
    household_size: int
    race: str

    def __post_init__(self) -> None:
        if not (-90 <= self.lat <= 90 and -180 <= self.lon <= 180):
            raise ValueError(f"household {self.id}: coordinates out of range")
        if not 0 <= self.income < math.inf:
            raise ValueError(
                f"household {self.id}: income must be finite and >= 0, got {self.income!r}"
            )
        if self.household_size < 1:
            raise ValueError(f"household {self.id}: household_size must be >= 1")


@dataclass(frozen=True)
class TransitStop:
    id: str
    kind: str  # "bus" | "rail"
    lat: float
    lon: float

    def __post_init__(self) -> None:
        if self.kind not in ("bus", "rail"):
            raise ValueError(f"stop {self.id}: kind must be 'bus' or 'rail'")
        if not (-90 <= self.lat <= 90 and -180 <= self.lon <= 180):
            raise ValueError(f"stop {self.id}: coordinates out of range")


@dataclass(frozen=True)
class StopSite:
    """A candidate bus-stop location produced by household clustering."""

    id: str
    lat: float
    lon: float


@dataclass(frozen=True)
class PovertyGuideline:
    """Income thresholds by household size (100% of the poverty level)."""

    thresholds: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted((int(s), float(v)) for s, v in self.thresholds))
        for size, value in pairs:
            if not 0 < value < math.inf:
                raise ValueError(
                    f"guideline threshold for household size {size} must be finite and > 0,"
                    f" got {value!r}"
                )
        sizes = [s for s, _ in pairs]
        if len(set(sizes)) != len(sizes):
            raise ValueError("duplicate household sizes in guideline")
        values = [v for _, v in pairs]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("guideline thresholds must increase with household size")
        object.__setattr__(self, "thresholds", pairs)

    @cached_property
    def _by_size(self) -> dict[int, float]:
        return dict(self.thresholds)

    def threshold(self, household_size: int) -> float:
        value = self._by_size.get(household_size)
        if value is None:
            raise ValueError(f"household size {household_size} beyond the guideline table")
        return value

    def poverty_ratio(self, income: float, household_size: int) -> float:
        return income / self.threshold(household_size)


@dataclass(frozen=True)
class CandidateRoute:
    """An ordered chain of candidate stops with a schedule variant."""

    id: str
    stops: tuple[StopSite, ...]
    daily_hours: Schedule
    quarterly_cost: float

    def __post_init__(self) -> None:
        count = len(self.stops)
        if not ROUTE_STOPS[0] <= count <= ROUTE_STOPS[1]:
            raise ValueError(f"route {self.id}: {count} stops outside {ROUTE_STOPS}")
        lat = np.array([s.lat for s in self.stops])
        lon = np.array([s.lon for s in self.stops])
        gaps = great_circle_miles(lat[:-1], lon[:-1], lat[1:], lon[1:])
        if (gaps > MAX_STOP_GAP_MILES + STOP_GAP_SLACK_MILES).any():
            raise ValueError(f"route {self.id}: consecutive stops more than "
                             f"{MAX_STOP_GAP_MILES} miles apart")


@dataclass(frozen=True)
class CostParams:
    """Program cost model. Half-day service always costs half of full-day."""

    hourly_operating_cost: float = 140.0
    full_day_hours: float = 16.0
    days_per_quarter: int = 91
    rides_per_quarter: int = 120
    subsidy_per_ride: tuple[float, float, float] = (10.0, 15.0, 20.0)

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not all(0 <= v < math.inf for v in np.atleast_1d(value)):
                raise ValueError(f"{field.name} must be finite and >= 0, got {value!r}")


def great_circle_miles(lat1, lon1, lat2, lon2) -> np.ndarray | float:
    """Haversine distance in miles; accepts scalars or broadcastable arrays, to
    the same bits: it squares by multiplying (a numpy scalar's ** 2 is pow)."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2) - np.radians(lon1)
    s_phi, s_lam = np.sin(dphi / 2.0), np.sin(dlam / 2.0)
    a = s_phi * s_phi + np.cos(phi1) * np.cos(phi2) * (s_lam * s_lam)
    return EARTH_RADIUS_MILES * 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _nearest_miles(
    lat: np.ndarray, lon: np.ndarray, stops: Sequence[TransitStop] | Sequence[StopSite]
) -> np.ndarray:
    stop_lat = np.array([s.lat for s in stops])
    stop_lon = np.array([s.lon for s in stops])
    best = np.full(lat.shape, np.inf)
    for k in range(stop_lat.size):
        np.minimum(best, great_circle_miles(lat, lon, stop_lat[k], stop_lon[k]), out=best)
    return best


def eligibility_filter(
    households: Sequence[GeoHousehold], stops: Sequence[TransitStop]
) -> list[GeoHousehold]:
    """Keep households whose nearest bus stop lies within [0.25, 3.5] miles and
    nearest rail station within [0.5, 3.5] miles (closed intervals)."""
    bus = [s for s in stops if s.kind == "bus"]
    rail = [s for s in stops if s.kind == "rail"]
    if not bus or not rail:
        raise ValueError("eligibility filtering needs at least one bus and one rail stop")
    lat = np.array([h.lat for h in households])
    lon = np.array([h.lon for h in households])
    bus_d = _nearest_miles(lat, lon, bus)
    rail_d = _nearest_miles(lat, lon, rail)
    keep = (
        (bus_d >= BUS_DISTANCE_MILES[0])
        & (bus_d <= BUS_DISTANCE_MILES[1])
        & (rail_d >= RAIL_DISTANCE_MILES[0])
        & (rail_d <= RAIL_DISTANCE_MILES[1])
    )
    return [h for h, k in zip(households, keep) if k]


def assign_subsidy(
    household: GeoHousehold,
    guideline: PovertyGuideline,
    params: CostParams = CostParams(),
) -> tuple[int, float]:
    """Map a household's poverty ratio to (tier, per-ride subsidy).

    Tier 1 at or above 200% of the guideline, tier 3 at or below 175%, and
    tier 2 in between; the guideline band (175%, 185%) is folded into tier 2.
    """
    ratio = guideline.poverty_ratio(household.income, household.household_size)
    if ratio >= TIER_1_MIN_RATIO:
        tier = 1
    elif ratio <= TIER_3_MAX_RATIO:
        tier = 3
    else:
        tier = 2
    return tier, params.subsidy_per_ride[tier - 1]


def cluster_stops(households: Sequence[GeoHousehold]) -> list[StopSite]:
    """Greedy leader clustering of households into candidate bus-stop sites.

    Households are scanned in id order; each joins the first cluster whose
    centroid lies within 0.25 miles, else opens a new cluster. Centroids are
    incrementally recomputed coordinate means. Sites more than 3.5 miles from
    every other site are dropped afterwards (a lone site is kept: there is no
    "other" to be far from).

    The scan is plain Python over scalars, and decides every join as the
    haversine over every centroid does. Centroids are indexed by latitude
    cell, floor(lat / CLUSTER_LAT_BAND_DEGREES): a centroid within the band
    of a household in cell c lies in cell c-1, c or c+1, whose members are
    visited in ascending index order and given the band test. Each visited
    centroid is then screened by its scalar haversine a-value against
    sin^2(r (1 -/+ CLUSTER_RADIUS_SLACK) / 2R); only a pair between the two
    is decided by `great_circle_miles`. Both shortcuts are exact:

    - Missed cells. A centroid that the cells miss through rounding in the
      division has |dlat| within an ulp or so of the band, which is the
      radius' angle widened by CLUSTER_RADIUS_SLACK; it lies farther than
      the radius and can never be a hit.
    - The screen. libm and numpy trig differ by a few ulp, about 1e-14
      relative, far inside the slack of 1e-9."""
    if not households:
        raise ValueError("cannot cluster an empty household list")
    band = CLUSTER_LAT_BAND_DEGREES
    half_angle = CLUSTER_RADIUS_MILES / (2.0 * EARTH_RADIUS_MILES)
    surely_in = math.sin(half_angle * (1.0 - CLUSTER_RADIUS_SLACK)) ** 2
    surely_out = math.sin(half_angle * (1.0 + CLUSTER_RADIUS_SLACK)) ** 2
    sin, cos, radians, floor = math.sin, math.cos, math.radians, math.floor
    # per centroid: degrees, radians and cos(latitude), and its size
    cent_lat: list[float] = []
    cent_lon: list[float] = []
    cent_phi: list[float] = []
    cent_lam: list[float] = []
    cent_cos: list[float] = []
    counts: list[int] = []
    cells: dict[int, list[int]] = {}  # latitude cell -> its centroids' indices
    for h in sorted(households, key=lambda h: h.id):
        lat, lon = h.lat, h.lon
        phi, lam = radians(lat), radians(lon)
        cos_phi = cos(phi)
        cell = floor(lat / band)
        near = cells.get(cell - 1, []) + cells.get(cell, []) + cells.get(cell + 1, [])
        near.sort()
        hit = -1
        for k in near:
            if abs(cent_lat[k] - lat) > band:
                continue
            a = (sin((phi - cent_phi[k]) / 2.0) ** 2
                 + cent_cos[k] * cos_phi * sin((lam - cent_lam[k]) / 2.0) ** 2)
            if a > surely_out:
                continue
            if a <= surely_in or great_circle_miles(
                cent_lat[k], cent_lon[k], lat, lon
            ) <= CLUSTER_RADIUS_MILES:
                hit = k
                break
        if hit < 0:
            cells.setdefault(cell, []).append(len(counts))
            cent_lat.append(lat)
            cent_lon.append(lon)
            cent_phi.append(phi)
            cent_lam.append(lam)
            cent_cos.append(cos_phi)
            counts.append(1)
            continue
        counts[hit] += 1
        old_cell = floor(cent_lat[hit] / band)
        cent_lat[hit] += (lat - cent_lat[hit]) / counts[hit]
        cent_lon[hit] += (lon - cent_lon[hit]) / counts[hit]
        cent_phi[hit], cent_lam[hit] = radians(cent_lat[hit]), radians(cent_lon[hit])
        cent_cos[hit] = cos(cent_phi[hit])
        new_cell = floor(cent_lat[hit] / band)
        if new_cell != old_cell:
            cells[old_cell].remove(hit)
            cells.setdefault(new_cell, []).append(hit)

    lat, lon = np.array(cent_lat), np.array(cent_lon)
    keep = np.ones(lat.size, dtype=bool)
    if lat.size > 1:
        rows = max(1, ISOLATION_BLOCK_ELEMENTS // lat.size)
        for lo in range(0, lat.size, rows):
            hi = min(lo + rows, lat.size)
            d = great_circle_miles(lat, lon, lat[lo:hi, np.newaxis], lon[lo:hi, np.newaxis])
            d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            keep[lo:hi] = ~(d.min(axis=1) > STOP_ISOLATION_MILES)
    return [
        StopSite(id=f"s{k:04d}", lat=float(lat[k]), lon=float(lon[k]))
        for k in np.flatnonzero(keep)
    ]


def route_quarterly_cost(schedule: Schedule, params: CostParams = CostParams()) -> float:
    """Quarterly operating cost for one vehicle on one route."""
    full = params.hourly_operating_cost * params.full_day_hours * params.days_per_quarter
    return full if schedule is Schedule.FULL else full / 2.0


def ride_hail_quarterly_cost(tier: int, params: CostParams = CostParams()) -> float:
    """Quarterly cost of enrolling one household at the given subsidy tier."""
    if tier not in (1, 2, 3):
        raise ValueError(f"unknown subsidy tier {tier}")
    return params.subsidy_per_ride[tier - 1] * params.rides_per_quarter


def generate_routes(
    sites: Sequence[StopSite],
    transit_stops: Sequence[TransitStop],
    count: int,
    rng: int | np.random.Generator,
    params: CostParams = CostParams(),
    max_attempts_per_route: int = 50,
) -> list[CandidateRoute]:
    """Chain candidate stop sites into `count` distinct routes, each emitted in
    a full-day and a half-day schedule variant (2 * count routes total).

    A route grows by seeded nearest-neighbor chaining from a random start
    while consecutive stops stay within 0.75 miles, is truncated to at most 18
    stops, and must end within 0.75 miles of an existing transit stop (the
    longest valid cut of at least 10 stops is used). Raises
    RouteGenerationError (a ValueError) carrying the partial result when the
    geography cannot supply enough routes, and ValueError when `count` < 1.
    """
    if count < 1:
        raise ValueError(f"route count must be >= 1, got {count}")
    rng = np.random.default_rng(rng)
    lat = np.array([s.lat for s in sites])
    lon = np.array([s.lon for s in sites])
    t_lat = np.array([s.lat for s in transit_stops])
    t_lon = np.array([s.lon for s in transit_stops])

    def terminal_ok(k: int) -> bool:
        d = great_circle_miles(t_lat, t_lon, lat[k], lon[k])
        return bool(d.min(initial=np.inf) <= MAX_STOP_GAP_MILES)

    # A chain depends only on its start, and begins with it: a start tried
    # before yields nothing new, a new start a new chain, and once every site
    # has started a chain no attempt can add one.
    chains: list[tuple[int, ...]] = []
    tried: set[int] = set()
    attempts_left = max_attempts_per_route * count
    while len(chains) < count and attempts_left > 0 and len(tried) < lat.size:
        attempts_left -= 1
        start = int(rng.integers(lat.size))
        if start in tried:
            continue
        tried.add(start)
        chain = [start]
        used = np.zeros(lat.size, dtype=bool)
        used[start] = True
        while len(chain) < ROUTE_STOPS[1]:
            d = great_circle_miles(lat, lon, lat[chain[-1]], lon[chain[-1]])
            d[used] = np.inf
            nxt = int(np.argmin(d))
            if d[nxt] > MAX_STOP_GAP_MILES:
                break
            chain.append(nxt)
            used[nxt] = True
        cut = -1
        for k in range(len(chain), ROUTE_STOPS[0] - 1, -1):
            if terminal_ok(chain[k - 1]):
                cut = k
                break
        if cut >= 0:
            chains.append(tuple(chain[:cut]))

    routes: list[CandidateRoute] = []
    for r, chain in enumerate(chains):
        stops = tuple(sites[k] for k in chain)
        for schedule in (Schedule.FULL, Schedule.HALF):
            routes.append(
                CandidateRoute(
                    id=f"route{r:02d}_{schedule.value}",
                    stops=stops,
                    daily_hours=schedule,
                    quarterly_cost=route_quarterly_cost(schedule, params),
                )
            )
    if len(chains) < count:
        raise RouteGenerationError(requested=count, routes=routes)
    return routes


def build_instance(
    households: Sequence[GeoHousehold],
    routes: Sequence[CandidateRoute],
    budget: float,
    guideline: PovertyGuideline,
    *,
    group_by: str = "race",
    params: CostParams = CostParams(),
) -> Instance:
    """Assemble the coverage instance.

    A route program covers the households within the 0.25-mile clustering
    radius of any of its stops; half-day variants cover every other such
    household in stop order. Groups partition households by the chosen
    categorical attribute. The instance holds bus lines only; the combined
    scenario is `model.inject_ride_hailing` of it. Route variants covering no
    household are dropped (they can never help)."""
    model_households = []
    for h in households:
        tier, _ = assign_subsidy(h, guideline, params)
        label = str(getattr(h, group_by))
        model_households.append(
            Household(
                id=h.id,
                ride_hail_cost=ride_hail_quarterly_cost(tier, params),
                group_ids=frozenset({f"{group_by}:{label}"}),
            )
        )

    # households sorted by latitude: a stop's radius lies inside one slice
    lat = np.array([h.lat for h in households])
    lon = np.array([h.lon for h in households])
    by_lat = np.argsort(lat, kind="stable")
    lat, lon = lat[by_lat], lon[by_lat]
    programs: list[Program] = []
    # the full- and half-day variants of a route share its stops: rank once per chain
    ranked_by_stops: dict[tuple[StopSite, ...], list[int]] = {}
    for route in routes:
        ranked = ranked_by_stops.get(route.stops)
        if ranked is None:
            order: dict[int, int] = {}
            for pos, stop in enumerate(route.stops):
                lo, hi = np.searchsorted(
                    lat, (stop.lat - CLUSTER_LAT_BAND_DEGREES, stop.lat + CLUSTER_LAT_BAND_DEGREES)
                )
                d = great_circle_miles(lat[lo:hi], lon[lo:hi], stop.lat, stop.lon)
                for i in by_lat[lo:hi][d <= CLUSTER_RADIUS_MILES].tolist():
                    order.setdefault(i, pos)
            ranked = sorted(order, key=lambda i: (order[i], households[i].id))
            ranked_by_stops[route.stops] = ranked
        if route.daily_hours is Schedule.HALF:
            ranked = ranked[::2]
        if not ranked:
            continue
        programs.append(
            Program(
                id=route.id,
                cost=route.quarterly_cost,
                covers=frozenset(households[i].id for i in ranked),
                kind=ProgramKind.BUS_LINE,
            )
        )

    return Instance(
        households=tuple(model_households),
        programs=tuple(programs),
        budget=float(budget),
    )


# ---------------------------------------------------------------------------
# synthetic city generation


@dataclass(frozen=True)
class SyntheticCityParams:
    """Knobs for the seeded synthetic city.

    Households scatter around a jittered grid of neighborhood centers inside a
    rectangle flanked by rail columns; sparse existing bus stops sit inside.
    The poverty guideline and the race distribution are synthetic stand-ins
    with the same shape as the public tables they mimic, not copies of them.
    """

    n_households: int = 2300
    grid_rows: int = 11
    grid_cols: int = 11
    grid_spacing_miles: float = 0.62
    scatter_miles: float = 0.13
    center_lat: float = 41.80
    center_lon: float = -87.70
    income_log_mean: float = 10.40
    income_log_sigma: float = 0.55
    mean_extra_members: float = 1.8
    max_household_size: int = 8
    guideline_base: float = 13_000.0
    guideline_step: float = 4_600.0
    race_distribution: tuple[tuple[str, float], ...] = (
        ("white", 0.38),
        ("black", 0.30),
        ("hispanic", 0.18),
        ("asian", 0.09),
        ("other", 0.05),
    )


def _offset_latlon(
    lat0: float, lon0: float, north_miles, east_miles
) -> tuple[np.ndarray, np.ndarray]:
    """Local tangent-plane offsets, accurate at city scale."""
    lat = lat0 + np.asarray(north_miles) / (EARTH_RADIUS_MILES * np.pi / 180.0)
    lon = lon0 + np.asarray(east_miles) / (
        EARTH_RADIUS_MILES * np.pi / 180.0 * np.cos(np.radians(lat0))
    )
    return lat, lon


def synthetic_city(
    params: SyntheticCityParams = SyntheticCityParams(),
    seed: int | np.random.Generator = 0,
) -> tuple[list[GeoHousehold], list[TransitStop], PovertyGuideline]:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(int(seed))

    rows, cols, spacing = params.grid_rows, params.grid_cols, params.grid_spacing_miles
    centers_n = np.repeat(np.arange(rows), cols) * spacing
    centers_e = np.tile(np.arange(cols), rows) * spacing
    centers_n = centers_n + rng.uniform(-0.1, 0.1, centers_n.size) * spacing
    centers_e = centers_e + rng.uniform(-0.1, 0.1, centers_e.size) * spacing

    which = rng.integers(centers_n.size, size=params.n_households)
    north = centers_n[which] + rng.normal(0.0, params.scatter_miles, params.n_households)
    east = centers_e[which] + rng.normal(0.0, params.scatter_miles, params.n_households)
    lat, lon = _offset_latlon(params.center_lat, params.center_lon, north, east)

    labels = [r for r, _ in params.race_distribution]
    weights = np.array([w for _, w in params.race_distribution], dtype=float)
    weights = weights / weights.sum()
    races = rng.choice(len(labels), size=params.n_households, p=weights)
    incomes = rng.lognormal(params.income_log_mean, params.income_log_sigma, params.n_households)
    sizes = 1 + rng.poisson(params.mean_extra_members, params.n_households)
    sizes = np.clip(sizes, 1, params.max_household_size)

    households = [
        GeoHousehold(id=f"h{k:05d}", lat=la, lon=lo, income=inc, household_size=size,
                     race=labels[race])
        for k, (la, lo, inc, size, race) in enumerate(
            zip(lat.tolist(), lon.tolist(), np.round(incomes, 2).tolist(), sizes.tolist(),
                races.tolist())
        )
    ]

    height = (rows - 1) * spacing
    width = (cols - 1) * spacing
    stops: list[TransitStop] = []
    rail_columns = [-0.6, width + 0.6]
    if width > 5.0:
        rail_columns.insert(1, width / 2.0)
    for c, east_pos in enumerate(rail_columns):
        for k, n_pos in enumerate(np.arange(0.0, height + 1e-9, 1.1)):
            s_lat, s_lon = _offset_latlon(params.center_lat, params.center_lon, n_pos, east_pos)
            stops.append(
                TransitStop(id=f"rail_{c}_{k}", kind="rail", lat=float(s_lat), lon=float(s_lon))
            )
    k = 0
    for n_pos in np.arange(0.9, height, 1.8):
        for e_pos in np.arange(0.9, width, 1.8):
            s_lat, s_lon = _offset_latlon(params.center_lat, params.center_lon, n_pos, e_pos)
            stops.append(TransitStop(id=f"bus_{k}", kind="bus", lat=float(s_lat), lon=float(s_lon)))
            k += 1

    guideline = PovertyGuideline(
        thresholds=tuple(
            (s, params.guideline_base + params.guideline_step * (s - 1))
            for s in range(1, params.max_household_size + 1)
        )
    )
    return households, stops, guideline


# ---------------------------------------------------------------------------
# geo CSV formats (headers double as version markers)


def read_geo_households(path: str | Path) -> list[GeoHousehold]:
    def household(row: dict[str, str]) -> GeoHousehold:
        return GeoHousehold(
            id=row["id"],
            lat=float(row["lat"]),
            lon=float(row["lon"]),
            income=float(row["income"]),
            household_size=int(row["household_size"]),
            race=row["race"],
        )

    return read_rows(Path(path), GEO_HOUSEHOLD_COLUMNS, household)


def read_transit_stops(path: str | Path) -> list[TransitStop]:
    def stop(row: dict[str, str]) -> TransitStop:
        return TransitStop(
            id=row["id"], kind=row["kind"], lat=float(row["lat"]), lon=float(row["lon"])
        )

    return read_rows(Path(path), TRANSIT_STOP_COLUMNS, stop)


def read_poverty_guideline(path: str | Path) -> PovertyGuideline:
    def threshold(row: dict[str, str]) -> tuple[int, float]:
        return int(row["household_size"]), float(row["fpl_100"])

    thresholds = tuple(read_rows(Path(path), POVERTY_GUIDELINE_COLUMNS, threshold))
    try:
        return PovertyGuideline(thresholds=thresholds)
    except ValueError as exc:  # the thresholds are checked together, not per row
        raise ValueError(f"{path}: {exc}") from None


def write_geo_households(households: Iterable[GeoHousehold], path: str | Path) -> None:
    rows = (
        [h.id, repr(h.lat), repr(h.lon), repr(h.income), h.household_size, h.race]
        for h in households
    )
    write_rows(path, GEO_HOUSEHOLD_COLUMNS, rows)


def write_transit_stops(stops: Iterable[TransitStop], path: str | Path) -> None:
    write_rows(path, TRANSIT_STOP_COLUMNS, ([s.id, s.kind, repr(s.lat), repr(s.lon)] for s in stops))


def write_poverty_guideline(guideline: PovertyGuideline, path: str | Path) -> None:
    rows = ([size, repr(value)] for size, value in guideline.thresholds)
    write_rows(path, POVERTY_GUIDELINE_COLUMNS, rows)
