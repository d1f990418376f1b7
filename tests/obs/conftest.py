"""Obs-suite fixtures: ``obs.fleet`` and ``slog.io`` are ranked
``OrderedLock`` instances, so every test runs under the lockdep witness."""

from tests.service.conftest import lock_order_witness  # noqa: F401  (autouse)
