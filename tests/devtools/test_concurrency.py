"""Unit tests for the concurrency rules (CONC001, CONC003) and their class model."""

from pathlib import Path

import repro.devtools.lint as lint
from repro.devtools.lint import lint_paths, lint_source

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _lint(source, code, path=Path("module.py")):
    return [finding for finding in lint_source(source, path) if finding.code == code]


def _codes(result, code):
    return [finding for finding in result.findings if finding.code == code]


class TestGuardInference:
    def test_write_under_lock_establishes_the_guard(self):
        source = """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self._n = 0

    def bump(self):
        with self._lock:
            self._n += 1

    def peek(self):
        return self._n
"""
        findings = _lint(source, "CONC001")
        assert len(findings) == 1
        assert "C._n is read without holding self._lock" in findings[0].message
        assert "written under it in bump()" in findings[0].message

    def test_declared_guard_wins_over_inference(self):
        source = """
import threading

class C:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()
        self._n = 0  # guarded-by: _b

    def bump(self):
        with self._a:
            self._n += 1
"""
        findings = _lint(source, "CONC001")
        assert len(findings) == 1
        assert "holding self._b" in findings[0].message
        assert "declared" in findings[0].message

    def test_init_and_locked_helpers_are_exempt(self):
        source = """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self._n = 0

    def bump(self):
        with self._lock:
            self._n += 1

    def _sum_locked(self):
        return self._n
"""
        assert _lint(source, "CONC001") == []

    def test_unguarded_fields_are_free(self):
        source = """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.label = "x"

    def rename(self, label):
        self.label = label  # never written under the lock: no guard

    def read(self):
        return self.label
"""
        assert _lint(source, "CONC001") == []

    def test_condition_alias_counts_as_the_same_lock(self):
        source = """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._items = []

    def put(self, item):
        with self._ready:
            self._items.append(item)
            self._ready.notify()

    def drain(self):
        with self._lock:
            items, self._items = self._items, []
            return items
"""
        assert _lint(source, "CONC001") == []


class TestBlockingUnderLock:
    def test_io_leaf_lock_permits_its_io(self):
        result = lint_paths([FIXTURES / "conc003" / "good.py"])
        assert result.clean

    def test_transitive_blocking_is_flagged_at_the_call_site(self):
        result = lint_paths([FIXTURES / "conc003" / "bad.py"])
        messages = [finding.message for finding in _codes(result, "CONC003")]
        assert any("self._backoff()" in message for message in messages)
        assert any("_report_locked" in message for message in messages)

    def test_blocking_queue_get_is_flagged(self):
        source = """
import queue
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self._q = queue.Queue()

    def take(self):
        with self._lock:
            return self._q.get()
"""
        findings = _lint(source, "CONC003")
        assert len(findings) == 1
        assert "get" in findings[0].message

    def test_nonblocking_queue_get_is_clean(self):
        source = """
import queue
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self._q = queue.Queue()

    def take(self):
        with self._lock:
            return self._q.get(timeout=0.1)

    def take_nowait(self):
        with self._lock:
            return self._q.get_nowait()
"""
        assert _lint(source, "CONC003") == []


def test_class_models_are_built_once_per_file_and_shared(monkeypatch):
    built = []
    build = lint.class_models

    def recording(tree, comments):
        built.append(build(tree, comments))
        return built[-1]

    monkeypatch.setattr(lint, "class_models", recording)
    source = (
        "import threading\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "class B:\n"
        "    pass\n"
    )
    assert lint_source(source, Path("x.py")) == []
    assert len(built) == 1  # one model per file, read by both rules
    models = built[0]
    assert [model.name for model in models] == ["A", "B"]
    assert set(models[0].locks) == {"_lock"}
