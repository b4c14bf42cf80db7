"""Shared test settings: property tests draw a fixed, derandomized set of
examples and keep no example database, so every run checks the same cases
and cannot flake."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    settings.register_profile("fixed", derandomize=True, database=None,
                              deadline=None)
    settings.load_profile("fixed")
