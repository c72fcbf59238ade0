"""One Hypothesis profile for every property test of the suite: examples
derived from the test itself, so every run draws the same ones, no example
database on disk and no per-example deadline.  Each test sets only its
``max_examples``."""

from hypothesis import settings

settings.register_profile("stheat", derandomize=True, database=None, deadline=None)
settings.load_profile("stheat")
