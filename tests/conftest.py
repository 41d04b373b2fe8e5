"""Hypothesis profiles for the suite.

The default profile keeps the local run quick. HYPOTHESIS_PROFILE=ci, as the
CI workflow sets it, runs many more examples per property, derandomized so
that a failure found there reproduces from the same seed. Neither profile has
a per-example deadline: on a loaded machine one slow example would fail a
property that holds.
"""

import os

from hypothesis import settings

settings.register_profile("default", deadline=None)
settings.register_profile("ci", max_examples=1000, derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
