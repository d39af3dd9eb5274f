"""Shared test settings."""

from hypothesis import settings

# Property tests draw the same examples on every run, keep no example
# database, take no per-example deadline on a loaded host, and stay within
# the suite's time budget.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("deterministic")
