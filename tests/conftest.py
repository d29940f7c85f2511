"""Shared test settings: hypothesis properties run seeded, without deadlines."""

from hypothesis import settings

settings.register_profile("spinchain", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("spinchain")
