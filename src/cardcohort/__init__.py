"""Home/work inference and cohort dynamics from transit smartcard logs.

The package turns weekly smartcard transaction files into per-card home
and work places, matches cards across two observation years, profiles
housing/job/commute changes, classifies riders into a 20-group
taxonomy, and scores transit dependence against a follow-up week.  A
seeded synthetic-population generator provides ground truth for all of
it.
"""

__version__ = "0.1.0"
