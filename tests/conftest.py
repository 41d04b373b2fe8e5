"""Hypothesis profiles for the suite.

The default profile keeps the local run quick. HYPOTHESIS_PROFILE=ci, as the
CI workflow sets it, runs many more examples per property, derandomized so
that a failure found there reproduces from the same seed.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
