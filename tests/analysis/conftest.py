"""Analysis-suite fixtures: ``cache.stats`` and ``cache.remote`` are ranked
``OrderedLock`` instances, so every test runs under the lockdep witness."""

from tests.service.conftest import lock_order_witness  # noqa: F401  (autouse)
