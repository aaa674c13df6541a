"""Hypothesis profiles for the test suite.

``mutants`` runs every phase but shrinking: a property that fails under a
mutant reports its first failing example at once, instead of spending
minutes reducing it.  ``python tests/mutants.py`` selects it with
``--hypothesis-profile=mutants``; tier-1 runs keep the default profile.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])
