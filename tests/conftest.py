"""Shared pytest set-up: one reproducible, time-bounded hypothesis profile.

Examples are derived from each test's source rather than drawn at
random, nothing is stored between runs, and the example count is fixed,
so the suite explores the same inputs on every machine and every run.
"""

from hypothesis import settings

settings.register_profile(
    "fedswarm",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    print_blob=True,
)
settings.load_profile("fedswarm")
