"""Synthetic population generator and ground-truth recovery scoring.

The generator plants a city on a regular grid of sites: each site is a
small k x k patch of stops spaced ``stop_spacing_m`` apart, and sites
sit ``site_pitch_m`` apart.  With the default 300 m spacing each site
clusters into exactly one place, and distinct sites never merge, so the
mapping from planted truth to expected pipeline output is analytic.
A 600 m spacing preset turns every stop into its own place instead.

Agents are deterministic archetypes:

* Commuter: same home and work site both years.
* Mover: home shifts at least two site pitches, alternating toward and
  away from the grid center; work stays put.
* JobChanger: work shifts at least 2.5 km; odd-indexed agents also move
  home, covering the changed-housing/changed-job cells.
* Jobless: no work either year; odd-indexed agents move home.
* Churner: work in exactly one year; half of them also move home.

All randomness comes from one named PRNG (SplitMix64) with a fixed
per-agent substream, so output is byte-identical for a given config and
independent of emission order.  The draw order inside an agent-week is
documented on :func:`_emit_agent_week` and is part of the fixture
contract.

Noise (``noise_rate`` = p) has two layers, drawn per agent-week and per
day respectively:

* weekly events, one selector draw u in [0,1): u < 0.2p a remote week
  (a working agent skips work all week, running errands instead, which
  hides the planted work place); next 0.15p band a sleepover (one night
  spent near home, so the next day's first boarding happens elsewhere,
  which under the F_h >= F_j constraint suppresses home identification
  for agents with a work place); next 0.15p band a midday round trip
  from work (splits that day's work presence into two stays, inflating
  F_j past F_h with the same suppression effect).  Remote and midday
  events are no-ops for weeks without a work place.
* benign per-day noise: with probability p, an evening round trip to a
  nearby site, too short to create candidate stays.

At p = 0 recovery is exact by construction.  At p = 0.2 the expected
per-year home recovery for working agents is 1 - 0.3p = 0.94 and work
recovery is 1 - 0.2p = 0.96; idle agent-years are unaffected (the
sleepover only suppresses homes when F_j > 0).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, fields
from datetime import date, timedelta
from functools import cache
from typing import Iterable, Mapping, Sequence

from .cohort import CHANGED, FOUND, JOBLESS, LOST, NOT_CHANGED
from .geo import M_PER_DEG_LAT, Coord, Region, haversine_km, point_in_region, radial_direction
from .groups import group_index
from .ingest import TRANSACTIONS_HEADER, iter_lines, read_config, take_header
from .reports import write_json, write_lines

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix64(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class SplitMix64:
    """SplitMix64 (Steele, Lea & Flood 2014), 64-bit state and output.

    The algorithm is part of the reproducibility contract: fixtures
    freeze byte-level outputs, so it must never change.  ``below`` uses
    plain modulo; the bias at these range sizes is irrelevant for test
    data and the simplicity keeps the stream easy to reason about.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & _MASK
        return _mix64(self._state)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def randrange(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo)

    def chance(self, p: float) -> bool:
        # Always consumes one draw so stream positions do not depend on p.
        return self.next_u64() < int(p * 2.0**64)

    def unit(self) -> float:
        return self.next_u64() / 2.0**64


ARCH_COMMUTER = "Commuter"
ARCH_MOVER = "Mover"
ARCH_JOB_CHANGER = "JobChanger"
ARCH_JOBLESS = "Jobless"
ARCH_CHURNER = "Churner"

ARCHETYPE_ORDER = (ARCH_COMMUTER, ARCH_MOVER, ARCH_JOB_CHANGER, ARCH_JOBLESS, ARCH_CHURNER)

TRUTH_HEADER = "card_id,archetype,home1,home2,work1,work2,retained"

# The south-west corner of the stop grid (lon, lat).
ORIGIN: Coord = (116.20, 39.75)
# Boarding windows in minutes after midnight, [start, end).  The evening
# window ends by minute 1250 because evening noise needs headroom before
# midnight.
MORNING = (420, 540)
EVENING = (1050, 1170)
ERRAND = (480, 600)


@dataclass
class GeneratorConfig:
    seed: int = 20080407
    commuters: int = 400
    movers: int = 400
    job_changers: int = 400
    jobless: int = 400
    churners: int = 400
    grid_rows: int = 10
    grid_cols: int = 10
    site_stops: int = 2
    stop_spacing_m: float = 300.0
    site_pitch_m: float = 2000.0
    fixed_fare_fraction: float = 0.3
    noise_rate: float = 0.0
    followup_retention: float = 0.25
    week1_start: date = date(2008, 4, 7)
    week2_start: date = date(2010, 4, 5)
    followup_start: date = date(2014, 4, 7)

    def validate(self) -> None:
        # SplitMix64 keeps the low 64 bits, so a seed outside would stand for another.
        if not 0 <= self.seed <= _MASK:
            raise ValueError("seed must lie in [0, 2**64)")
        counts = (self.commuters, self.movers, self.job_changers, self.jobless, self.churners)
        if any(c < 0 for c in counts):
            raise ValueError("agent counts must be non-negative")
        if self.grid_rows < 1 or self.grid_cols < 1 or self.site_stops < 1:
            raise ValueError("grid dimensions must be positive")
        if not (0.0 <= self.noise_rate <= 1.0):
            raise ValueError("noise_rate must lie in [0, 1]")
        if not (0.0 <= self.followup_retention <= 1.0):
            raise ValueError("followup_retention must lie in [0, 1]")
        if not (0.0 <= self.fixed_fare_fraction <= 1.0):
            raise ValueError("fixed_fare_fraction must lie in [0, 1]")
        for key in ("stop_spacing_m", "site_pitch_m"):
            # Written so that NaN fails the comparison and is rejected.
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite")
        span = (self.site_stops - 1) * self.stop_spacing_m
        if span + 2 * 500.0 >= self.site_pitch_m:
            raise ValueError("sites too close: clusters would merge across sites")

    @property
    def total_agents(self) -> int:
        return self.commuters + self.movers + self.job_changers + self.jobless + self.churners

    def to_file(self, path: str) -> None:
        # A date prints as YYYY-MM-DD, the format read_config parses.
        write_lines(path, (f"{f.name}={getattr(self, f.name)}" for f in fields(self)))

    @classmethod
    def from_file(cls, path: str) -> "GeneratorConfig":
        return cls(**read_config(path, cls))


@dataclass(frozen=True, slots=True)
class TruthRow:
    card_id: str
    archetype: str
    home1: str
    home2: str
    work1: str | None
    work2: str | None
    retained: bool


@dataclass
class GeneratedBundle:
    out_dir: str
    paths: dict[str, str]
    truth: list[TruthRow]
    config: GeneratorConfig
    center: Coord


class _Geom:
    """Site/stop geometry shared by placement and emission."""

    def __init__(self, cfg: GeneratorConfig):
        self.rows = cfg.grid_rows
        self.cols = cfg.grid_cols
        self.k = cfg.site_stops
        self.k2 = self.k * self.k
        self.n_sites = self.rows * self.cols
        m_per_deg_lon = M_PER_DEG_LAT * math.cos(math.radians(ORIGIN[1]))
        self._dlon = 1.0 / m_per_deg_lon
        self._dlat = 1.0 / M_PER_DEG_LAT
        self.cfg = cfg
        half_span = (self.k - 1) / 2.0 * cfg.stop_spacing_m
        self.site_centroids: list[Coord] = []
        for s in range(self.n_sites):
            r, c = divmod(s, self.cols)
            x = c * cfg.site_pitch_m + half_span
            y = r * cfg.site_pitch_m + half_span
            self.site_centroids.append(self._to_lonlat(x, y))
        cx = ((self.cols - 1) * cfg.site_pitch_m) / 2.0 + half_span
        cy = ((self.rows - 1) * cfg.site_pitch_m) / 2.0 + half_span
        self.center_m = (cx, cy)
        self.center = self._to_lonlat(cx, cy)

    def _to_lonlat(self, x_m: float, y_m: float) -> Coord:
        return ORIGIN[0] + x_m * self._dlon, ORIGIN[1] + y_m * self._dlat

    def stop_id(self, site: int, member: int) -> str:
        return f"S{site * self.k2 + member:06d}"

    def anchor_stop(self, site: int) -> str:
        return self.stop_id(site, 0)

    def stop_rows(self) -> list[str]:
        rows = []
        cfg = self.cfg
        for s in range(self.n_sites):
            r, c = divmod(s, self.cols)
            bx = c * cfg.site_pitch_m
            by = r * cfg.site_pitch_m
            for m in range(self.k2):
                mr, mc = divmod(m, self.k)
                lon, lat = self._to_lonlat(bx + mc * cfg.stop_spacing_m, by + mr * cfg.stop_spacing_m)
                rows.append(f"{self.stop_id(s, m)},{lon:.7f},{lat:.7f}")
        return rows

    def site_km(self, a: int, b: int) -> float:
        return haversine_km(self.site_centroids[a], self.site_centroids[b])


_NEARBY_OFFSETS = (
    (0, 1), (1, 0), (0, -1), (-1, 0),
    (1, 1), (-1, 1), (1, -1), (-1, -1),
    (0, 2), (2, 0), (0, -2), (-2, 0),
)


def _nearby_site(geom: _Geom, base: int, salt: int, forbidden: frozenset[int]) -> int:
    """A deterministic neighbour of ``base`` outside ``forbidden``.

    Neighbours are at most two site pitches away, which keeps errand and
    noise stays short enough never to qualify under the 360-minute rule
    (travel + dwell stays under 360 by construction).
    """
    r, c = divmod(base, geom.cols)
    n = len(_NEARBY_OFFSETS)
    start = salt % n
    for i in range(n):
        dr, dc = _NEARBY_OFFSETS[(start + i) % n]
        nr, nc = r + dr, c + dc
        if 0 <= nr < geom.rows and 0 <= nc < geom.cols:
            cand = nr * geom.cols + nc
            if cand not in forbidden:
                return cand
    for cand in range(geom.n_sites):
        if cand not in forbidden:
            return cand
    raise ValueError("no free site available")


def _stride(n: int, preferred: int) -> int:
    for k in (preferred, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 1):
        if k < n and math.gcd(k, n) == 1:
            return k
    return 1


def _axis_step(x: int, n: int, inward: bool) -> int:
    """Cell ``x`` of an ``n``-cell axis moved two cells toward (or away from)
    the axis middle, or ``x`` itself when it cannot move that way."""
    mid = (n - 1) / 2.0
    if inward:
        if mid - x >= 2.5:
            return x + 2
        return x - 2 if x - mid >= 2.5 else x
    if x >= mid:
        return x + 2 if x + 2 <= n - 1 else x
    return x - 2 if x >= 2 else x


def _moved_site(site: int, rows: int, cols: int, inward: bool) -> int | None:
    """Where a home at ``site`` moves: two pitches toward (or away from) the
    grid center on each axis that allows it; None when neither axis does."""
    r, c = divmod(site, cols)
    nr, nc = _axis_step(r, rows, inward), _axis_step(c, cols, inward)
    return None if (nr, nc) == (r, c) else nr * cols + nc


def _home_move(archetype: str, i: int) -> bool | None:
    """Whether agent ``i`` of ``archetype`` moves home inward; None when its home stays.

    Movers always move; job changers and the jobless move when ``i`` is
    odd, churners when ``i // 2`` is odd.  Each archetype's movers
    alternate inward and outward.
    """
    if archetype == ARCH_MOVER:
        j = i
    elif archetype in (ARCH_JOB_CHANGER, ARCH_JOBLESS) and i % 2:
        j = i // 2
    elif archetype == ARCH_CHURNER and i // 2 % 2:
        j = i // 4
    else:
        return None
    return j % 2 == 0


@dataclass(slots=True)
class _AgentPlan:
    g: int
    card_id: str
    archetype: str
    home1: int
    home2: int
    work1: int | None
    work2: int | None
    retained: bool


def _pick_free(geom: _Geom, start_idx: int, forbidden: set[int]) -> int:
    idx = start_idx % geom.n_sites
    while idx in forbidden:
        idx = (idx + 1) % geom.n_sites
    return idx


def _place_agents(cfg: GeneratorConfig, geom: _Geom) -> list[_AgentPlan]:
    """Deterministic site assignment for every agent.

    Placement uses index arithmetic rather than PRNG draws so that the
    planted truth is easy to audit; every relocation is at least two
    site pitches, far clear of the 2 km benchmark, and mover directions
    alternate inward/outward by construction.
    """
    rows, cols, n_sites = geom.rows, geom.cols, geom.n_sites
    s_home = _stride(n_sites, 7)
    s_work = _stride(n_sites, 11)
    movable = {
        inward: [s for s in range(n_sites) if _moved_site(s, rows, cols, inward) is not None]
        for inward in (True, False)
    }
    counts = (cfg.commuters, cfg.movers, cfg.job_changers, cfg.jobless, cfg.churners)
    agents = [(archetype, i) for archetype, count in zip(ARCHETYPE_ORDER, counts) for i in range(count)]
    r = cfg.followup_retention

    plans: list[_AgentPlan] = []
    for g, (archetype, i) in enumerate(agents):
        inward = _home_move(archetype, i)
        if inward is None:
            h1 = h2 = (g * s_home) % n_sites
        else:
            pool = movable[inward]
            if not pool:
                way = "inward" if inward else "outward"
                raise ValueError(f"grid too small for {way} relocations (needs >= 6x6)")
            h1 = pool[(i * 3 + (1 if inward else 2)) % len(pool)]
            h2 = _moved_site(h1, rows, cols, inward)
        if archetype == ARCH_JOBLESS:
            w1 = w2 = None
        else:
            w1 = w2 = _pick_free(geom, g * s_work + n_sites // 3, {h1, h2})
            if archetype == ARCH_JOB_CHANGER:
                # The site mirrored through the grid center, else the next
                # free one at least 2.5 km away.
                mirror = w2 = n_sites - 1 - w1
                while w2 in (h1, h2, w1) or geom.site_km(w1, w2) < 2.5:
                    w2 = (w2 + 1) % n_sites
                    if w2 == mirror:
                        raise ValueError("grid too small for job changes (no free site 2.5 km from work)")
            elif archetype == ARCH_CHURNER:
                w1, w2 = (w1, None) if i % 2 == 0 else (None, w1)
        retained = math.floor((g + 1) * r) > math.floor(g * r)
        plans.append(_AgentPlan(g, f"C{g:06d}", archetype, h1, h2, w1, w2, retained))

    _check_plans(geom, plans)
    return plans


def _check_plans(geom: _Geom, plans: Sequence[_AgentPlan]) -> None:
    """Self-audit of the planted truth before anything is written.

    Distances must sit far from the 2 km benchmark and radial margins
    far from the tie boundary, so floating-point noise can never flip a
    planted category.
    """
    for p in plans:
        if p.work1 is not None and p.work1 in (p.home1, p.home2):
            raise ValueError(f"{p.card_id}: work1 collides with a home site")
        if p.work2 is not None and p.work2 in (p.home1, p.home2):
            raise ValueError(f"{p.card_id}: work2 collides with a home site")
        if p.work1 is not None and p.work2 is not None and p.work1 != p.work2:
            km = geom.site_km(p.work1, p.work2)
            if km < 2.5:
                raise ValueError(f"{p.card_id}: planted work move {km:.3f} km too close")
        if p.home1 == p.home2:
            continue
        move = geom.site_km(p.home1, p.home2)
        if move < 2.5:
            raise ValueError(f"{p.card_id}: planted home move {move:.3f} km too close to benchmark")
        d1 = haversine_km(geom.site_centroids[p.home1], geom.center)
        d2 = haversine_km(geom.site_centroids[p.home2], geom.center)
        if abs(d1 - d2) < 0.5:
            raise ValueError(f"{p.card_id}: move direction margin too small")


def _emit_agent_week(
    rows: list[str],
    cfg: GeneratorConfig,
    geom: _Geom,
    rng: SplitMix64,
    plan: _AgentPlan,
    prefixes: Sequence[str],
    weekday_offsets: Sequence[int],
    home: int,
    work: int | None,
    metro_flavor: bool,
) -> None:
    """Emit one agent-week of transactions.

    ``prefixes`` holds the ``YYYY-MM-DDT`` stamp of each of the week's
    seven days and ``weekday_offsets`` the days among them that fall on
    Monday to Friday.

    Draw order (the fixture contract):

    1. one weekly event selector ``u``; if it lands in the sleepover
       band, one draw for the sleepover day (Tue..Fri); if in the midday
       band, one draw for the day (Mon..Fri);
    2. per weekday, in date order:
       a. working day: morning boarding minute; (midday event day:
          departure minute and dwell); evening boarding minute;
       b. idle day: errand boarding minute and errand dwell;
       c. per planned leg in boarding order: travel jitter, then fare;
       d. one noise chance; when it fires: noise variant, departure
          offset, dwell, then the two noise legs' jitter/fare draws.
    """
    p = cfg.noise_rate

    u = rng.unit()
    remote = sleep_day = mid_day = None
    if u < 0.20 * p:
        remote = True
    elif u < 0.35 * p:
        sleep_day = 1 + rng.below(4) if len(weekday_offsets) >= 2 else None
    elif u < 0.50 * p:
        mid_day = rng.below(len(weekday_offsets)) if weekday_offsets else None

    working_week = work is not None and not remote

    stop_counter = 0

    def stop_of(site: int) -> str:
        nonlocal stop_counter
        member = (plan.g + stop_counter) % geom.k2
        stop_counter += 1
        return geom.stop_id(site, member)

    def emit_leg(a: int, b: int, t_min: int) -> int:
        """Append one leg boarding at minute-of-week ``t_min``; returns alight minute."""
        km = geom.site_km(a, b)
        travel = max(5, round(km * 3.0)) + rng.below(6)
        alight_t = t_min + travel
        metro = metro_flavor and (a + b) % 7 == 0
        fixed = rng.chance(cfg.fixed_fare_fraction) and not metro
        flavor = "M" if metro else "B"
        route = f"{flavor}{a:04d}{b:04d}"
        b_day, b_rem = divmod(t_min, 1440)
        b_stamp = f"{prefixes[b_day]}{b_rem // 60:02d}:{b_rem % 60:02d}"
        if fixed:
            rows.append(f"{plan.card_id},R,FIX,{route},{stop_of(a)},{b_stamp},,")
        else:
            a_day, a_rem = divmod(alight_t, 1440)
            a_stamp = f"{prefixes[a_day]}{a_rem // 60:02d}:{a_rem % 60:02d}"
            rows.append(
                f"{plan.card_id},R,DST,{route},{stop_of(a)},{b_stamp},{stop_of(b)},{a_stamp}"
            )
        return alight_t

    loc = home
    for di, day_off in enumerate(weekday_offsets):
        base = day_off * 1440
        day_end_arrival = None
        sleep_tonight = sleep_day is not None and di == sleep_day - 1
        if working_week:
            m_t = base + rng.randrange(*MORNING)
            plan_mid = mid_day is not None and di == mid_day
            if plan_mid:
                out_t = base + rng.randrange(660, 840)
                mid_dwell = 20 + rng.below(41)
            e_t = base + rng.randrange(*EVENING)
            emit_leg(loc, work, m_t)
            loc = work
            if plan_mid:
                x = _nearby_site(geom, work, plan.g + 7 * di, frozenset((work, home)))
                back_t = emit_leg(work, x, out_t) + mid_dwell
                emit_leg(x, work, back_t)
            dest = _nearby_site(geom, home, plan.g + 7 * di, frozenset((home, work))) if sleep_tonight else home
            day_end_arrival = emit_leg(work, dest, e_t)
            loc = dest
        else:
            d_t = base + rng.randrange(*ERRAND)
            dwell = 60 + rng.below(241)
            forbidden = frozenset((loc,)) if work is None else frozenset((loc, work))
            errand = _nearby_site(geom, home, plan.g * 3 + di, forbidden | {home})
            back_t = emit_leg(loc, errand, d_t) + dwell
            if sleep_tonight:
                dest = _nearby_site(geom, home, plan.g + 7 * di, frozenset((home, errand)))
            else:
                dest = home
            day_end_arrival = emit_leg(errand, dest, back_t)
            loc = dest
        if rng.chance(p):
            variant = rng.below(2)
            off = 10 + rng.below(51)
            n_dwell = (20 + rng.below(41)) if variant == 0 else (60 + rng.below(60))
            forb = {loc, home}
            if work is not None:
                forb.add(work)
            y = _nearby_site(geom, loc, plan.g * 5 + di + variant, frozenset(forb))
            # Boardings clamped inside the day: a round trip that crossed
            # midnight would steal the next day's first boarding and
            # change the noise semantics.
            t1 = min(day_end_arrival + off, base + 1350)
            t2 = min(emit_leg(loc, y, t1) + n_dwell, base + 1434)
            emit_leg(y, loc, t2)


BUNDLE_FILES = (
    "stops.csv", "week1.csv", "week2.csv", "followup.csv", "truth.csv",
    "r4.geojson", "taz.geojson", "bundle.conf", "generator.conf",
)


def _write_zones(path: str, geom: _Geom, zones: Iterable[tuple[str, float, float, float, float]]) -> None:
    """Write rectangles ``(name, x0, y0, x1, y1)``, in metres from the origin,
    as a GeoJSON FeatureCollection with one Polygon feature each."""
    features = []
    for name, x0, y0, x1, y1 in zones:
        corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))
        ring = [[round(lon, 7), round(lat, 7)] for lon, lat in (geom._to_lonlat(x, y) for x, y in corners)]
        features.append({
            "type": "Feature",
            "properties": {"name": name},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        })
    write_json(path, {"type": "FeatureCollection", "features": features})


def generate(cfg: GeneratorConfig, out_dir: str) -> GeneratedBundle:
    """Write a full synthetic bundle into ``out_dir``.

    Produces stops.csv, week1/week2/followup transaction files, the
    ground-truth table, an R4-style square region, a four-quadrant TAZ
    layer, the effective generator config, and a bundle.conf with the
    paths and analysis parameters that a pipeline run needs.
    """
    cfg.validate()
    geom = _Geom(cfg)
    plans = _place_agents(cfg, geom)
    paths = {name.partition(".")[0]: os.path.join(out_dir, name) for name in BUNDLE_FILES}

    write_lines(paths["stops"], ["stop_id,lon,lat"], geom.stop_rows())

    week_files = (
        ("week1", cfg.week1_start, 1, False),
        ("week2", cfg.week2_start, 2, True),
        ("followup", cfg.followup_start, 3, True),
    )
    for key, start, year_idx, metro in week_files:
        days = [start + timedelta(days=i) for i in range(7)]
        prefixes = [d.isoformat() + "T" for d in days]
        weekday_offsets = [i for i, d in enumerate(days) if d.weekday() < 5]
        rows = [TRANSACTIONS_HEADER]
        for plan in plans:
            if year_idx == 3 and not plan.retained:
                continue
            # Per-agent substream: emission order cannot affect content.
            rng = SplitMix64(_mix64(cfg.seed + (plan.g + 1) * GOLDEN) ^ year_idx * 0x9E37)
            home = plan.home1 if year_idx == 1 else plan.home2
            work = plan.work1 if year_idx == 1 else plan.work2
            _emit_agent_week(rows, cfg, geom, rng, plan, prefixes, weekday_offsets, home, work, metro)
        write_lines(paths[key], rows)

    truth = [
        TruthRow(
            p.card_id,
            p.archetype,
            geom.anchor_stop(p.home1),
            geom.anchor_stop(p.home2),
            geom.anchor_stop(p.work1) if p.work1 is not None else None,
            geom.anchor_stop(p.work2) if p.work2 is not None else None,
            p.retained,
        )
        for p in plans
    ]
    write_lines(paths["truth"], [TRUTH_HEADER], (
        f"{t.card_id},{t.archetype},{t.home1},{t.home2},"
        f"{t.work1 or ''},{t.work2 or ''},{1 if t.retained else 0}"
        for t in truth
    ))

    cx, cy = geom.center_m
    half = cfg.site_pitch_m * geom.rows / 4.0
    _write_zones(paths["r4"], geom, [("R4", cx - half, cy - half, cx + half, cy + half)])
    reach = max(geom.rows, geom.cols) * cfg.site_pitch_m
    _write_zones(paths["taz"], geom, [
        (name, cx, cy, cx + sx * reach, cy + sy * reach)
        for name, sx, sy in (("SW", -1, -1), ("SE", 1, -1), ("NW", -1, 1), ("NE", 1, 1))
    ])

    cfg.to_file(paths["generator"])
    center = geom.center
    write_lines(paths["bundle"], [
        "year1=week1.csv",
        "year2=week2.csv",
        "followup=followup.csv",
        "stops1=stops.csv",
        "stops2=stops.csv",
        "r4=r4.geojson",
        "taz=taz.geojson",
        f"center={center[0]:.7f},{center[1]:.7f}",
        f"week1_start={cfg.week1_start}",
        f"week2_start={cfg.week2_start}",
        f"followup_start={cfg.followup_start}",
    ])
    return GeneratedBundle(out_dir, paths, truth, cfg, center)


def load_truth(path: str) -> list[TruthRow]:
    """The rows of a ``truth.csv``; a wrong header raises SchemaError, a row without seven fields ValueError."""
    it = iter_lines(path)
    take_header(it, TRUTH_HEADER, "truth")
    rows = []
    for line in it:
        parts = line.rstrip("\r\n").split(",")
        if len(parts) != 7:
            raise ValueError(f"bad truth row: {line!r}")
        card_id, archetype, home1, home2, work1, work2, retained = parts
        rows.append(TruthRow(card_id, archetype, home1, home2, work1 or None, work2 or None, retained == "1"))
    return rows


def _ratio(num: int, den: int) -> float:
    """``num / den``, or 1.0 when there was nothing to find."""
    return num / den if den else 1.0


@dataclass
class RecoveryMetrics:
    home_planted: int
    home_recovered: int
    home_correct: int
    work_planted: int
    work_recovered: int
    work_correct: int
    housing_confusion: Mapping[tuple[str, str], int]
    work_confusion: Mapping[tuple[str, str], int]
    group_total: int
    group_correct: int

    @property
    def home_recall(self) -> float:
        return _ratio(self.home_correct, self.home_planted)

    @property
    def home_precision(self) -> float:
        return _ratio(self.home_correct, self.home_recovered)

    @property
    def work_recall(self) -> float:
        return _ratio(self.work_correct, self.work_planted)

    @property
    def work_precision(self) -> float:
        return _ratio(self.work_correct, self.work_recovered)

    @staticmethod
    def _diag(conf: Mapping[tuple[str, str], int]) -> float:
        return _ratio(sum(c for (t, p), c in conf.items() if t == p), sum(conf.values()))

    @property
    def housing_diag(self) -> float:
        return self._diag(self.housing_confusion)

    @property
    def work_diag(self) -> float:
        return self._diag(self.work_confusion)

    @property
    def group_accuracy(self) -> float:
        return _ratio(self.group_correct, self.group_total)


def _cat_with_dir(status: str, direction: str | None) -> str:
    return f"{status}/{direction}" if direction else status


def evaluate_recovery(truth: Sequence[TruthRow], result, tolerance_km: float = 0.5) -> RecoveryMetrics:
    """Score a pipeline run against the generator's planted truth.

    ``result`` is a PipelineResult for the same bundle; each truth card's
    home and work are read from its year's profile columns, at its
    position there.  A recovered place is correct when its centroid
    lies within ``tolerance_km`` of the planted place's centroid.
    Truth-side delta categories are recomputed from planted coordinates
    with the run's own benchmark parameters by a rule stated here, apart
    from the pipeline's, so the pipeline is scored against an
    independent reference.  Thousands of cards share each planted place,
    so each geometric test is made once per run.
    """
    years = result.year1, result.year2
    positions = [{card: i for i, card in enumerate(year.profiles.cards)} for year in years]
    truth_cards = {t.card_id for t in truth}
    seen_cards = positions[0].keys() | positions[1].keys()
    if truth_cards != seen_cards:
        missing = sorted(truth_cards ^ seen_cards)[:5]
        raise ValueError(f"card-id mismatch between truth and pipeline output: {missing}")

    center = result.config.center
    change_km = result.config.change_km
    region: Region | None = result.r4_region

    @cache
    def planted_centroid(year: int, anchor: str | None) -> Coord | None:
        places = years[year].places
        return None if anchor is None else places.centroid(places.place_of[places.codes[anchor]])

    @cache
    def near(year: int, place: int, planted: Coord) -> bool:
        return haversine_km(years[year].places.centroid(place), planted) <= tolerance_km

    @cache
    def planted_move(old: Coord | None, new: Coord | None) -> str:
        """The delta category of a planted place pair (either may be absent)."""
        if old is None:
            return JOBLESS if new is None else FOUND
        if new is None:
            return LOST
        if haversine_km(old, new) < change_km:
            return NOT_CHANGED
        return _cat_with_dir(CHANGED, radial_direction(old, new, center))

    @cache
    def in_r4(planted: Coord) -> bool:
        return region is not None and point_in_region(planted, region)

    home_planted = home_recovered = home_correct = 0
    work_planted = work_recovered = work_correct = 0
    housing_conf: Counter[tuple[str, str]] = Counter()
    work_conf: Counter[tuple[str, str]] = Counter()
    group_correct = 0
    predicted = {card: (housing, work) for card, housing, work, _, _ in result.deltas.rows()}

    for t in truth:
        cents = []
        for y, (home_anchor, work_anchor) in enumerate(((t.home1, t.work1), (t.home2, t.work2))):
            hc, wc = planted_centroid(y, home_anchor), planted_centroid(y, work_anchor)
            cents.append((hc, wc))
            home_planted += 1
            if wc is not None:
                work_planted += 1
            i = positions[y].get(t.card_id)
            if i is None:
                continue
            home, work = years[y].profiles.home[i], years[y].profiles.work[i]
            if home >= 0:
                home_recovered += 1
                home_correct += near(y, home, hc)
            if work >= 0:
                work_recovered += 1
                if wc is not None:
                    work_correct += near(y, work, wc)

        (h1c, w1c), (h2c, w2c) = cents
        housing_truth = planted_move(h1c, h2c)
        work_truth = planted_move(w1c, w2c)
        halves = predicted.get(t.card_id)
        if halves:
            (housing_status, housing_dir, _, _, r4), (work_status, work_dir, _, _) = halves
            housing_pred = _cat_with_dir(housing_status, housing_dir)
            work_pred = _cat_with_dir(work_status, work_dir)
        else:
            housing_pred = work_pred = "(missing)"
        housing_conf[housing_truth, housing_pred] += 1
        work_conf[work_truth, work_pred] += 1

        truth_group = group_index(housing_truth != NOT_CHANGED, work_truth.split("/")[0], in_r4(h2c))
        if halves and group_index(housing_status == CHANGED, work_status, r4) == truth_group:
            group_correct += 1

    return RecoveryMetrics(
        home_planted, home_recovered, home_correct, work_planted, work_recovered, work_correct,
        housing_conf, work_conf, len(truth), group_correct,
    )
