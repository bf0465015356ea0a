"""Home/work inference and cohort dynamics from transit smartcard logs.

The package turns weekly smartcard transaction files into per-card home
and work places, matches cards across two observation years, profiles
housing/job/commute changes, classifies riders into a 20-group
taxonomy, and scores transit dependence against a follow-up week.  A
seeded synthetic-population generator provides ground truth for all of
it.
"""

from .chain import PERMISSIVE, STRICT, Stay
from .cohort import (
    CHANGED,
    COMMUTE_BINS,
    FOUND,
    JOBLESS,
    LOST,
    MOVE_BINS,
    NOT_CHANGED,
    CohortDelta,
    build_delta,
    commute_bin,
    match_cohort,
    move_bin,
)
from .geo import (
    DEFAULT_CENTER,
    EARTH_RADIUS_KM,
    INWARD,
    OUTWARD,
    Place,
    PlaceIndex,
    Region,
    build_places,
    haversine_km,
    load_region,
    load_region_features,
    point_in_region,
    radial_direction,
)
from .groups import (
    DeprivationScore,
    DeprivationSummary,
    classify,
    group_index,
    group_triple,
    score_deprivation,
)
from .infer import (
    HOME_RULE_PAPER,
    HOME_RULE_RELAXED,
    YearProfile,
    build_profile,
)
from .ingest import (
    CARD_REGULAR,
    CARD_STUDENT,
    FARE_DISTANCE,
    FARE_FIXED,
    ObservationWeek,
    Rejection,
    SchemaError,
    Stop,
    geocode,
    load_stops,
    parse_minute,
    parse_transactions,
)
from .pipeline import MissingInputError, PipelineResult, RunConfig, run_pipeline
from .synth import GeneratorConfig, SplitMix64, evaluate_recovery, generate, load_truth

__version__ = "0.1.0"
