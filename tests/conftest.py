"""Tier-1 draws the same Hypothesis examples on every run: one derandomized
settings profile, loaded before any test module is imported.  Fresh seeds
are drawn outside tier-1 by ``tools/sweep.py``, which runs the suite without
this file (``pytest --noconftest``)."""
from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
