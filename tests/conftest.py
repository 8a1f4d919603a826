"""Session-wide test settings."""

import os

from hypothesis import settings

# Fixed examples and no example database: a failing fuzz run under this profile
# reproduces from the commit alone.  CI sets HYPOTHESIS_PROFILE=ci; local runs
# keep hypothesis's random examples.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
