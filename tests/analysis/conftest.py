"""Analysis-suite fixtures: ``cache.stats`` is a ranked ``OrderedLock``, so
every test runs under the lockdep witness."""

from tests.service.conftest import lock_order_witness  # noqa: F401  (autouse)
