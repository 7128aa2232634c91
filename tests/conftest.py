"""Hypothesis profiles. The default profile runs every property test with
Hypothesis's own settings; ``--hypothesis-profile=ci`` runs more examples
of each."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
