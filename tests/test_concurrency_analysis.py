"""The interprocedural concurrency analyzer and its rollout mechanics.

Each QB4xx diagnostic must fire on a seeded fixture (the analyzer's
acceptance bar: a planted out-of-order acquisition is caught *statically*,
before any thread runs), the real tree must be clean, and the rollout
tooling — per-line/per-file suppressions and the JSON baseline — must
behave so a new rule family can land without a flag-day cleanup.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.concurrency import analyze_paths
from repro.analysis.engine import Violation, lint_file
from repro.analysis.__main__ import main
from repro.errors import ValidationError

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"


def fixture(tmp_path: Path, source: str, name: str = "seeded.py") -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def codes(violations: list[Violation]) -> list[str]:
    return [v.rule for v in violations]


# --------------------------------------------------------------------- #
# seeded diagnostics
# --------------------------------------------------------------------- #


class TestSeededViolations:
    def test_qb401_upward_acquisition(self, tmp_path):
        fixture(tmp_path, """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.db = None

                def bad(self):
                    with self._lock:
                        with self.db.rwlock.write():
                            pass
            """)
        found = analyze_paths([tmp_path])
        assert codes(found) == ["QB401"]
        assert "declared order" in found[0].message

    def test_qb401_through_a_resolved_call(self, tmp_path):
        fixture(tmp_path, """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.db = None

                def outer(self):
                    with self._lock:
                        self.helper()

                def helper(self):
                    with self.db.rwlock.write():
                        pass
            """)
        found = analyze_paths([tmp_path])
        # Caught twice: at the call site (the callee may acquire db.rwlock
        # under the leaf) and inside the helper (its entry context — the
        # intersection of its call sites — holds the leaf).
        assert codes(found) == ["QB401", "QB401"]

    def test_qb401_nonreentrant_recursion(self, tmp_path):
        fixture(tmp_path, """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    with self._lock:
                        with self._lock:
                            pass
            """)
        found = analyze_paths([tmp_path])
        assert codes(found) == ["QB401"]
        assert "re-acquired" in found[0].message

    def test_qb411_guarded_mutation_outside_lock(self, tmp_path):
        fixture(tmp_path, """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pages = {}  # guarded_by: _lock

                def good(self):
                    with self._lock:
                        self._pages[1] = b"x"

                def bad(self):
                    self._pages[1] = b"x"

                def bad_mutator_call(self):
                    self._pages.clear()
            """)
        found = analyze_paths([tmp_path])
        assert codes(found) == ["QB411", "QB411"]
        assert all("_pages" in v.message for v in found)

    def test_qb411_inherited_through_entry_context(self, tmp_path):
        """A helper is clean only if *every* call site holds the guard."""
        fixture(tmp_path, """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0  # guarded_by: _lock

                def locked_path(self):
                    with self._lock:
                        self._bump()

                def _bump(self):
                    self.hits += 1
            """)
        assert codes(analyze_paths([tmp_path])) == []
        fixture(tmp_path, """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0  # guarded_by: _lock

                def locked_path(self):
                    with self._lock:
                        self._bump()

                def unlocked_path(self):
                    self._bump()

                def _bump(self):
                    self.hits += 1
            """, name="seeded2.py")
        found = analyze_paths([tmp_path / "seeded2.py"])
        assert codes(found) == ["QB411"]

    def test_qb412_and_qb421_guarded_by_declarations(self, tmp_path):
        fixture(tmp_path, """
            from repro.concurrency import guarded_by

            class Wal:
                def __init__(self):
                    self._dirty = {}  # guarded_by: txn

                @guarded_by("txn")
                def _buffer(self, n):
                    self._dirty[n] = b""

                def good(self, n):
                    with self.transaction():
                        self._buffer(n)

                def bad_call(self, n):
                    self._buffer(n)

                def bad_mutation(self, n):
                    self._dirty[n] = b""
            """)
        found = analyze_paths([tmp_path])
        assert codes(found) == ["QB421", "QB421"]
        assert "transaction" in found[0].message

    def test_qb422_blocking_call_under_write_lock(self, tmp_path):
        fixture(tmp_path, """
            class Pool:
                def __init__(self):
                    self._queue = None

                def submit(self, fn):
                    self._queue.put(fn)

            class Engine:
                def __init__(self, pool: Pool):
                    self.rwlock = None
                    self.pool = pool

                def bad(self):
                    with self.rwlock.write():
                        self.pool.submit(len)

                def fine_after_the_lock(self):
                    with self.rwlock.write():
                        pass
                    self.pool.submit(len)
            """)
        found = analyze_paths([tmp_path])
        assert codes(found) == ["QB422"]
        assert "blocking" in found[0].message

    def test_constructors_are_exempt(self, tmp_path):
        fixture(tmp_path, """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pages = {}  # guarded_by: _lock
                    self._pages[0] = b"warm"
            """)
        assert codes(analyze_paths([tmp_path])) == []

    def test_ordered_code_is_clean(self, tmp_path):
        fixture(tmp_path, """
            import threading

            class Engine:
                def __init__(self):
                    self.rwlock = None
                    self._lock = threading.Lock()
                    self.count = 0  # guarded_by: _lock

                def good(self):
                    with self.rwlock.write():
                        with self.transaction():
                            with self._lock:
                                self.count += 1
            """)
        assert codes(analyze_paths([tmp_path])) == []


# --------------------------------------------------------------------- #
# the real tree
# --------------------------------------------------------------------- #


class TestTreeSelfCheck:
    def test_src_repro_is_clean(self):
        assert analyze_paths([SRC_REPRO]) == []


# --------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------- #


BAD_MUTATION_TEMPLATE = """
    import threading

    class Cache:
        def __init__(self):
            self._lock = threading.Lock()
            self._pages = {}  # guarded_by: _lock

        def bad(self):
            self._pages[1] = b"x"@SUFFIX@
    """


def bad_mutation(line_suffix: str = "") -> str:
    """The canonical QB411 fixture, with an optional trailing comment."""
    return BAD_MUTATION_TEMPLATE.replace("@SUFFIX@", line_suffix)


class TestSuppressions:
    def test_line_suppression(self, tmp_path):
        fixture(tmp_path,
                bad_mutation("  # qblint: disable=QB411"))
        assert analyze_paths([tmp_path]) == []

    def test_file_suppression(self, tmp_path):
        source = "# qblint: disable-file=QB411\n" + textwrap.dedent(
            bad_mutation())
        (tmp_path / "seeded.py").write_text(source, encoding="utf-8")
        assert analyze_paths([tmp_path]) == []

    def test_qb_codes_are_known_to_the_line_engine(self, tmp_path):
        """A QB4xx suppression must not trip 'unknown-suppression'."""
        path = fixture(tmp_path,
                       bad_mutation("  # qblint: disable=QB411"))
        assert [v for v in lint_file(path) if v.rule == "unknown-suppression"] == []


# --------------------------------------------------------------------- #
# baselines
# --------------------------------------------------------------------- #


class TestBaseline:
    def test_round_trip_filters_known_debt(self, tmp_path):
        fixture(tmp_path, bad_mutation())
        found = analyze_paths([tmp_path])
        assert codes(found) == ["QB411"]
        baseline_file = tmp_path / "baseline.json"
        assert write_baseline(baseline_file, found) == 1
        tolerated = load_baseline(baseline_file)
        assert apply_baseline(found, tolerated) == []

    def test_new_debt_still_reported(self, tmp_path):
        fixture(tmp_path, bad_mutation())
        found = analyze_paths([tmp_path])
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, found)
        fixture(tmp_path, """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pages = {}  # guarded_by: _lock
                    self.db = None

                def bad(self):
                    self._pages[1] = b"x"

                def also_bad(self):
                    with self._lock:
                        with self.db.rwlock.write():
                            pass
            """)
        now = analyze_paths([tmp_path])
        fresh = apply_baseline(now, load_baseline(baseline_file))
        # The old QB411 is tolerated (same path/rule/message survives the
        # line shift); the new QB401 fails the run.
        assert codes(fresh) == ["QB401"]

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_baseline(bad)
        bad.write_text(json.dumps({"version": 99, "entries": []}),
                       encoding="utf-8")
        with pytest.raises(ValidationError, match="unsupported format"):
            load_baseline(bad)
        with pytest.raises(ValidationError, match="not found"):
            load_baseline(tmp_path / "missing.json")


# --------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------- #


class TestCli:
    def test_concurrency_flag_fails_on_seeded_tree(self, tmp_path, capsys):
        fixture(tmp_path, bad_mutation())
        status = main([str(tmp_path), "--rule", "no-broad-except",
                       "--concurrency"])
        assert status == 1
        assert "QB411" in capsys.readouterr().out

    def test_without_flag_the_pass_is_off(self, tmp_path):
        fixture(tmp_path, bad_mutation())
        assert main([str(tmp_path), "--rule", "no-broad-except"]) == 0

    def test_baseline_workflow(self, tmp_path, capsys):
        fixture(tmp_path, bad_mutation())
        baseline_file = tmp_path / "baseline.json"
        assert main([str(tmp_path), "--rule", "no-broad-except",
                     "--concurrency", "--write-baseline",
                     str(baseline_file)]) == 0
        assert "1 baseline entr" in capsys.readouterr().out
        assert main([str(tmp_path), "--rule", "no-broad-except",
                     "--concurrency", "--baseline", str(baseline_file)]) == 0

    def test_missing_baseline_is_a_usage_error(self, tmp_path):
        fixture(tmp_path, bad_mutation())
        assert main([str(tmp_path), "--rule", "no-broad-except",
                     "--concurrency", "--baseline",
                     str(tmp_path / "nope.json")]) == 2

    def test_self_check_entry_point(self):
        """The CI self-check: the shipped tree passes its own analyzer."""
        assert main([str(SRC_REPRO), "--concurrency"]) == 0
