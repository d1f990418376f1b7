"""The counted mutants only repro-lint catches stay caught.

``docs/architecture.md`` ("Mutation recall: why the linter has two rules")
counts five service mutants that pass every test, every golden digest and
the lockdep witness: three guarded fields touched outside ``_lock``
(CONC001) and two sleeps under a non-io lock (CONC003).  Each is applied
here as an exact text edit to the real ``service/leases.py`` or
``service/core.py`` source, in memory, and linted; the unedited sources
must be clean.
"""

from pathlib import Path

import pytest

from repro.devtools.lint import lint_source

SERVICE = Path(__file__).resolve().parents[2] / "src" / "repro" / "service"

GUARD = "without holding self._lock (declared '# guarded-by: _lock')"

# name -> (module, [(old, new)], [(code, message, text on the flagged line)])
MUTANTS = {
    "M19": (
        "leases.py",
        [(
            "        with self._lock:\n"
            "            pending = len(self._queue)  # the queue is exactly the pending shards\n"
            "            return {\n"
            '                "shards_pending": pending,\n'
            '                "shards_leased": len(self._shards) - pending'
            " - self.shards_completed,\n",
            "        pending = len(self._queue)  # the queue is exactly the pending shards\n"
            "        shards = len(self._shards)\n"
            "        with self._lock:\n"
            "            return {\n"
            '                "shards_pending": pending,\n'
            '                "shards_leased": shards - pending - self.shards_completed,\n',
        )],
        [
            ("CONC001", f"ShardBoard._queue is read {GUARD}", "pending = len(self._queue)"),
            ("CONC001", f"ShardBoard._shards is read {GUARD}", "shards = len(self._shards)"),
        ],
    ),
    "M20": (
        "leases.py",
        [(
            "            self._workers_seen[lease.worker] = now\n"
            "            self.heartbeats += 1\n"
            "            return lease\n",
            "            self.heartbeats += 1\n"
            "        self._workers_seen[lease.worker] = now\n"
            "        return lease\n",
        )],
        [(
            "CONC001",
            f"ShardBoard._workers_seen is written {GUARD}",
            "self._workers_seen[lease.worker] = now",
        )],
    ),
    "M25": (
        "core.py",
        [(
            "    def draining(self) -> bool:\n"
            "        with self._lock:\n"
            "            return self._draining\n",
            "    def draining(self) -> bool:\n"
            "        return self._draining\n",
        )],
        [(
            "CONC001",
            f"SimulationService._draining is read {GUARD}",
            "return self._draining",
        )],
    ),
    "M21": (
        "leases.py",
        [
            ("import threading\n", "import threading\nimport time\n"),
            (
                "        with self._lock:\n"
                "            self._workers_seen[worker] = now\n",
                "        with self._lock:\n"
                "            time.sleep(0.001)\n"
                "            self._workers_seen[worker] = now\n",
            ),
        ],
        [(
            "CONC003",
            "blocking call time.sleep while holding self._lock in ShardBoard.claim()",
            "time.sleep(0.001)",
        )],
    ),
    "M24": (
        "core.py",
        [(
            "            with self._lock:\n"
            "                pass\n",
            "            with self._lock:\n"
            "                time.sleep(0.001)\n",
        )],
        [(
            "CONC003",
            "blocking call time.sleep while holding self._lock in SimulationService.wait()",
            "time.sleep(0.001)",
        )],
    ),
}


@pytest.mark.parametrize("module", ["leases.py", "core.py"])
def test_the_service_sources_are_clean(module):
    source = (SERVICE / module).read_text()
    assert lint_source(source, Path(module)) == []


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_counted_mutant_is_caught(name):
    module, edits, expected = MUTANTS[name]
    source = (SERVICE / module).read_text()
    for old, new in edits:
        assert source.count(old) == 1, f"{name}: the edit no longer applies to {module}"
        source = source.replace(old, new)
    lines = source.splitlines()
    found = [
        (finding.code, finding.message, lines[finding.line - 1].strip())
        for finding in lint_source(source, Path(module))
    ]
    assert [(code, message) for code, message, _ in found] == [
        (code, message) for code, message, _ in expected
    ]
    for (_, _, line), (_, _, site) in zip(found, expected):
        assert line.startswith(site), (line, site)
