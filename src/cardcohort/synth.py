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

import json
import math
import os
from dataclasses import dataclass, fields
from datetime import date, timedelta
from typing import Iterable, Mapping, Sequence

from .cohort import CHANGED, FOUND, JOBLESS, LOST, NOT_CHANGED
from .geo import (
    Coord,
    M_PER_DEG_LAT,
    Region,
    haversine_km,
    point_in_region,
    radial_direction,
)
from .groups import group_index
from .ingest import TRANSACTIONS_HEADER, read_config

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
    origin_lon: float = 116.20
    origin_lat: float = 39.75
    morning_start: int = 420
    morning_end: int = 540
    evening_start: int = 1050
    evening_end: int = 1170
    errand_start: int = 480
    errand_end: int = 600
    fixed_fare_fraction: float = 0.3
    noise_rate: float = 0.0
    followup_retention: float = 0.25
    week1_start: date = date(2008, 4, 7)
    week2_start: date = date(2010, 4, 5)
    followup_start: date = date(2014, 4, 7)

    def validate(self) -> None:
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
        for lo, hi in (
            (self.morning_start, self.morning_end),
            (self.evening_start, self.evening_end),
            (self.errand_start, self.errand_end),
        ):
            if not (0 <= lo < hi <= 1440):
                raise ValueError("schedule windows must be ordered within a day")
        if self.morning_end > self.evening_start:
            raise ValueError("morning window must end before the evening window")
        if self.evening_end > 1250:
            # Evening noise needs headroom before midnight.
            raise ValueError("evening window must end by minute 1250")
        if self.stop_spacing_m <= 0 or self.site_pitch_m <= 0:
            raise ValueError("spacings must be positive")
        span = (self.site_stops - 1) * self.stop_spacing_m
        if span + 2 * 500.0 >= self.site_pitch_m:
            raise ValueError("sites too close: clusters would merge across sites")

    @property
    def total_agents(self) -> int:
        return self.commuters + self.movers + self.job_changers + self.jobless + self.churners

    def to_file(self, path: str) -> None:
        # A date prints as YYYY-MM-DD, the format read_config parses.
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))

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
        m_per_deg_lon = M_PER_DEG_LAT * math.cos(math.radians(cfg.origin_lat))
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
        return (
            self.cfg.origin_lon + x_m * self._dlon,
            self.cfg.origin_lat + y_m * self._dlat,
        )

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


def _toward_center(rc: tuple[int, int], cr: float, cc: float) -> tuple[int, int] | None:
    r, c = rc
    nr = r + 2 if cr - r >= 2.5 else (r - 2 if r - cr >= 2.5 else r)
    nc = c + 2 if cc - c >= 2.5 else (c - 2 if c - cc >= 2.5 else c)
    if (nr, nc) == (r, c):
        return None
    return nr, nc


def _away_from_center(
    rc: tuple[int, int], cr: float, cc: float, rows: int, cols: int
) -> tuple[int, int] | None:
    r, c = rc
    nr, nc = r, c
    if r >= cr and r + 2 <= rows - 1:
        nr = r + 2
    elif r < cr and r - 2 >= 0:
        nr = r - 2
    if c >= cc and c + 2 <= cols - 1:
        nc = c + 2
    elif c < cc and c - 2 >= 0:
        nc = c - 2
    if (nr, nc) == (r, c):
        return None
    return nr, nc


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
    rows, cols = geom.rows, geom.cols
    cr, cc = (rows - 1) / 2.0, (cols - 1) / 2.0
    n_sites = geom.n_sites
    s_home = _stride(n_sites, 7)
    s_work = _stride(n_sites, 11)

    inward_pool = []
    outward_pool = []
    for s in range(n_sites):
        rc = divmod(s, cols)
        if _toward_center(rc, cr, cc):
            inward_pool.append(s)
        if _away_from_center(rc, cr, cc, rows, cols):
            outward_pool.append(s)

    def moved_home(i: int, inward: bool) -> tuple[int, int]:
        if inward:
            if not inward_pool:
                raise ValueError("grid too small for inward relocations (needs >= 6x6)")
            h1 = inward_pool[(i * 3 + 1) % len(inward_pool)]
            rc2 = _toward_center(divmod(h1, cols), cr, cc)
        else:
            if not outward_pool:
                raise ValueError("grid too small for outward relocations (needs >= 6x6)")
            h1 = outward_pool[(i * 3 + 2) % len(outward_pool)]
            rc2 = _away_from_center(divmod(h1, cols), cr, cc, rows, cols)
        h2 = rc2[0] * cols + rc2[1]
        return h1, h2

    plans: list[_AgentPlan] = []
    counts = (cfg.commuters, cfg.movers, cfg.job_changers, cfg.jobless, cfg.churners)
    g = 0
    for archetype, count in zip(ARCHETYPE_ORDER, counts):
        for i in range(count):
            card_id = f"C{g:06d}"
            if archetype == ARCH_COMMUTER:
                h1 = (g * s_home) % n_sites
                h2 = h1
                w1 = _pick_free(geom, g * s_work + n_sites // 3, {h1})
                w2 = w1
            elif archetype == ARCH_MOVER:
                h1, h2 = moved_home(i, inward=i % 2 == 0)
                w1 = _pick_free(geom, g * s_work + n_sites // 3, {h1, h2})
                w2 = w1
            elif archetype == ARCH_JOB_CHANGER:
                if i % 2 == 0:
                    h1 = (g * s_home) % n_sites
                    h2 = h1
                else:
                    h1, h2 = moved_home(i, inward=(i // 2) % 2 == 0)
                w1 = _pick_free(geom, g * s_work + n_sites // 3, {h1, h2})
                r, c = divmod(w1, cols)
                mirror = (rows - 1 - r) * cols + (cols - 1 - c)
                w2 = mirror
                if w2 in {h1, h2, w1} or geom.site_km(w1, w2) < 2.5:
                    w2 = _pick_free(geom, mirror + 1, {h1, h2, w1})
                    while geom.site_km(w1, w2) < 2.5:
                        w2 = _pick_free(geom, w2 + 1, {h1, h2, w1})
            elif archetype == ARCH_JOBLESS:
                if i % 2 == 0:
                    h1 = (g * s_home) % n_sites
                    h2 = h1
                else:
                    h1, h2 = moved_home(i, inward=(i // 2) % 2 == 0)
                w1 = w2 = None
            else:  # Churner
                if (i // 2) % 2 == 0:
                    h1 = (g * s_home) % n_sites
                    h2 = h1
                else:
                    h1, h2 = moved_home(i, inward=(i // 4) % 2 == 0)
                w = _pick_free(geom, g * s_work + n_sites // 3, {h1, h2})
                if i % 2 == 0:
                    w1, w2 = w, None
                else:
                    w1, w2 = None, w
            plans.append(_AgentPlan(g, card_id, archetype, h1, h2, w1, w2, False))
            g += 1

    r = cfg.followup_retention
    for p in plans:
        p.retained = math.floor((p.g + 1) * r) > math.floor(p.g * r)

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


def _day_prefixes(start: date) -> list[str]:
    return [(start + timedelta(days=i)).isoformat() + "T" for i in range(7)]


def _weekday_offsets(start: date) -> list[int]:
    return [i for i in range(7) if (start + timedelta(days=i)).weekday() < 5]


def _emit_agent_week(
    rows: list[str],
    cfg: GeneratorConfig,
    geom: _Geom,
    rng: SplitMix64,
    plan: _AgentPlan,
    week_start: date,
    home: int,
    work: int | None,
    metro_flavor: bool,
) -> None:
    """Emit one agent-week of transactions.

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
    prefixes = _day_prefixes(week_start)
    weekday_offsets = _weekday_offsets(week_start)
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
            m_t = base + rng.randrange(cfg.morning_start, cfg.morning_end)
            plan_mid = mid_day is not None and di == mid_day
            if plan_mid:
                out_t = base + rng.randrange(660, 840)
                mid_dwell = 20 + rng.below(41)
            e_t = base + rng.randrange(cfg.evening_start, cfg.evening_end)
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
            d_t = base + rng.randrange(cfg.errand_start, cfg.errand_end)
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


def _write_lines(path: str, header: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _square_ring(center_m: tuple[float, float], half_m: float, geom: _Geom) -> list[list[float]]:
    cx, cy = center_m
    corners = [
        (cx - half_m, cy - half_m),
        (cx + half_m, cy - half_m),
        (cx + half_m, cy + half_m),
        (cx - half_m, cy + half_m),
        (cx - half_m, cy - half_m),
    ]
    return [[round(lon, 7), round(lat, 7)] for lon, lat in (geom._to_lonlat(x, y) for x, y in corners)]


def _write_geojson(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def generate(cfg: GeneratorConfig, out_dir: str) -> GeneratedBundle:
    """Write a full synthetic bundle into ``out_dir``.

    Produces stops.csv, week1/week2/followup transaction files, the
    ground-truth table, an R4-style square region, a four-quadrant TAZ
    layer, the effective generator config, and a bundle.conf with the
    paths and analysis parameters that a pipeline run needs.
    """
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    geom = _Geom(cfg)
    plans = _place_agents(cfg, geom)

    def path(name: str) -> str:
        return os.path.join(out_dir, name)

    _write_lines(path("stops.csv"), "stop_id,lon,lat", geom.stop_rows())

    week_files = (
        ("week1.csv", cfg.week1_start, 1, False),
        ("week2.csv", cfg.week2_start, 2, True),
        ("followup.csv", cfg.followup_start, 3, True),
    )
    for fname, start, year_idx, metro in week_files:
        rows: list[str] = []
        for plan in plans:
            if year_idx == 3 and not plan.retained:
                continue
            # Per-agent substream: emission order cannot affect content.
            rng = SplitMix64(_mix64(cfg.seed + (plan.g + 1) * GOLDEN) ^ year_idx * 0x9E37)
            home = plan.home1 if year_idx == 1 else plan.home2
            work = plan.work1 if year_idx == 1 else plan.work2
            _emit_agent_week(rows, cfg, geom, rng, plan, start, home, work, metro)
        _write_lines(path(fname), TRANSACTIONS_HEADER, rows)

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
    _write_lines(
        path("truth.csv"),
        TRUTH_HEADER,
        (
            f"{t.card_id},{t.archetype},{t.home1},{t.home2},"
            f"{t.work1 or ''},{t.work2 or ''},{1 if t.retained else 0}"
            for t in truth
        ),
    )

    r4_half = cfg.site_pitch_m * geom.rows / 4.0
    r4 = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"name": "R4"},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [_square_ring(geom.center_m, r4_half, geom)],
                },
            }
        ],
    }
    _write_geojson(path("r4.geojson"), r4)

    cx, cy = geom.center_m
    reach = max(geom.rows, geom.cols) * cfg.site_pitch_m
    quads = []
    for qname, sx, sy in (("SW", -1, -1), ("SE", 1, -1), ("NW", -1, 1), ("NE", 1, 1)):
        ring = [
            [cx, cy],
            [cx + sx * reach, cy],
            [cx + sx * reach, cy + sy * reach],
            [cx, cy + sy * reach],
            [cx, cy],
        ]
        coords = [[round(lon, 7), round(lat, 7)] for lon, lat in (geom._to_lonlat(x, y) for x, y in ring)]
        quads.append(
            {
                "type": "Feature",
                "properties": {"name": qname},
                "geometry": {"type": "Polygon", "coordinates": [coords]},
            }
        )
    _write_geojson(path("taz.geojson"), {"type": "FeatureCollection", "features": quads})

    cfg.to_file(path("generator.conf"))
    center = geom.center
    with open(path("bundle.conf"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("year1=week1.csv\n")
        fh.write("year2=week2.csv\n")
        fh.write("followup=followup.csv\n")
        fh.write("stops1=stops.csv\n")
        fh.write("stops2=stops.csv\n")
        fh.write("r4=r4.geojson\n")
        fh.write("taz=taz.geojson\n")
        fh.write(f"center={center[0]:.7f},{center[1]:.7f}\n")
        fh.write(f"week1_start={cfg.week1_start.isoformat()}\n")
        fh.write(f"week2_start={cfg.week2_start.isoformat()}\n")
        fh.write(f"followup_start={cfg.followup_start.isoformat()}\n")

    paths = {
        "stops": path("stops.csv"),
        "week1": path("week1.csv"),
        "week2": path("week2.csv"),
        "followup": path("followup.csv"),
        "truth": path("truth.csv"),
        "r4": path("r4.geojson"),
        "taz": path("taz.geojson"),
        "bundle": path("bundle.conf"),
        "generator": path("generator.conf"),
    }
    return GeneratedBundle(out_dir, paths, truth, cfg, center)


def load_truth(path: str) -> list[TruthRow]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRUTH_HEADER:
            raise ValueError(f"unexpected truth header: {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 7:
                raise ValueError(f"bad truth row: {line!r}")
            rows.append(
                TruthRow(
                    parts[0],
                    parts[1],
                    parts[2],
                    parts[3],
                    parts[4] or None,
                    parts[5] or None,
                    parts[6] == "1",
                )
            )
    return rows


@dataclass
class RecoveryMetrics:
    home_planted: int
    home_recovered: int
    home_correct: int
    work_planted: int
    work_recovered: int
    work_correct: int
    housing_confusion: dict[tuple[str, str], int]
    work_confusion: dict[tuple[str, str], int]
    group_total: int
    group_correct: int

    @property
    def home_recall(self) -> float:
        return self.home_correct / self.home_planted if self.home_planted else 1.0

    @property
    def home_precision(self) -> float:
        return self.home_correct / self.home_recovered if self.home_recovered else 1.0

    @property
    def work_recall(self) -> float:
        return self.work_correct / self.work_planted if self.work_planted else 1.0

    @property
    def work_precision(self) -> float:
        return self.work_correct / self.work_recovered if self.work_recovered else 1.0

    @staticmethod
    def _diag(conf: Mapping[tuple[str, str], int]) -> float:
        total = sum(conf.values())
        if not total:
            return 1.0
        return sum(c for (t, p), c in conf.items() if t == p) / total

    @property
    def housing_diag(self) -> float:
        return self._diag(self.housing_confusion)

    @property
    def work_diag(self) -> float:
        return self._diag(self.work_confusion)

    @property
    def group_accuracy(self) -> float:
        return self.group_correct / self.group_total if self.group_total else 1.0


def _cat_with_dir(status: str, direction: str | None) -> str:
    return f"{status}/{direction}" if direction else status


def evaluate_recovery(truth: Sequence[TruthRow], result, tolerance_km: float = 0.5) -> RecoveryMetrics:
    """Score a pipeline run against the generator's planted truth.

    ``result`` is a PipelineResult for the same bundle.  A recovered
    place is correct when its centroid lies within ``tolerance_km`` of
    the planted place's centroid.  Truth-side delta categories are
    recomputed from planted coordinates with the run's own benchmark
    parameters, so the comparison inputs are independent even though the
    classification arithmetic is shared.
    """
    truth_cards = {t.card_id for t in truth}
    seen_cards = set(result.year1.profiles) | set(result.year2.profiles)
    if truth_cards != seen_cards:
        missing = sorted(truth_cards ^ seen_cards)[:5]
        raise ValueError(f"card-id mismatch between truth and pipeline output: {missing}")

    center = result.config.center
    change_km = result.config.change_km
    region: Region | None = result.r4_region

    home_planted = home_recovered = home_correct = 0
    work_planted = work_recovered = work_correct = 0
    housing_conf: dict[tuple[str, str], int] = {}
    work_conf: dict[tuple[str, str], int] = {}
    group_total = group_correct = 0

    def planted_centroid(places, anchor: str | None) -> Coord | None:
        if anchor is None:
            return None
        return places.centroid(places.place_of_stop(anchor))

    for t in truth:
        anchors = (
            (result.year1.places, result.year1.profiles.get(t.card_id), t.home1, t.work1),
            (result.year2.places, result.year2.profiles.get(t.card_id), t.home2, t.work2),
        )
        cents = []
        for places, profile, home_anchor, work_anchor in anchors:
            hc = planted_centroid(places, home_anchor)
            wc = planted_centroid(places, work_anchor)
            cents.append((hc, wc))
            home_planted += 1
            if profile is not None and profile.home is not None:
                home_recovered += 1
                if haversine_km(profile.home_centroid, hc) <= tolerance_km:
                    home_correct += 1
            if wc is not None:
                work_planted += 1
            if profile is not None and profile.work is not None:
                work_recovered += 1
                if wc is not None and haversine_km(profile.work_centroid, wc) <= tolerance_km:
                    work_correct += 1

        (h1c, w1c), (h2c, w2c) = cents
        move_km = haversine_km(h1c, h2c)
        if move_km >= change_km:
            housing_truth = _cat_with_dir(CHANGED, radial_direction(h1c, h2c, center))
        else:
            housing_truth = NOT_CHANGED
        if w1c is None and w2c is None:
            work_truth = JOBLESS
        elif w1c is not None and w2c is None:
            work_truth = LOST
        elif w1c is None:
            work_truth = FOUND
        else:
            wkm = haversine_km(w1c, w2c)
            if wkm >= change_km:
                work_truth = _cat_with_dir(CHANGED, radial_direction(w1c, w2c, center))
            else:
                work_truth = NOT_CHANGED

        delta = result.deltas.get(t.card_id)
        housing_pred = (
            _cat_with_dir(delta.housing_status, delta.housing_dir) if delta else "(missing)"
        )
        work_pred = _cat_with_dir(delta.work_status, delta.work_dir) if delta else "(missing)"
        housing_conf[(housing_truth, housing_pred)] = housing_conf.get((housing_truth, housing_pred), 0) + 1
        work_conf[(work_truth, work_pred)] = work_conf.get((work_truth, work_pred), 0) + 1

        in_r4 = point_in_region(h2c, region) if region is not None else False
        truth_group = group_index(housing_truth != NOT_CHANGED, work_truth.split("/")[0], in_r4)
        group_total += 1
        if result.groups.get(t.card_id) == truth_group:
            group_correct += 1

    return RecoveryMetrics(
        home_planted,
        home_recovered,
        home_correct,
        work_planted,
        work_recovered,
        work_correct,
        housing_conf,
        work_conf,
        group_total,
        group_correct,
    )
