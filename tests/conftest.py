"""Hypothesis profiles. `HYPOTHESIS_PROFILE=ci` replays the same examples on
every run and prints the blob that reproduces a failure."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
