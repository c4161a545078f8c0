"""Hypothesis profiles for the properties that take their example budget
from the profile rather than from their own ``settings``.

The tier-1 run uses ``tier1``, which keeps such a property to 30 examples per
parametrisation; CI selects ``ci`` (``--hypothesis-profile=ci``) for a
larger search.
"""

from hypothesis import settings

settings.register_profile("tier1", max_examples=30)
settings.register_profile("ci", max_examples=300)
settings.load_profile("tier1")
