"""The interprocedural concurrency analyzer.

Each QB4xx diagnostic must fire on a seeded fixture (the analyzer's
acceptance bar: a planted out-of-order acquisition is caught *statically*,
before any thread runs), every guard annotation in the real tree must
check something, the tree must be clean, and per-line/per-file
suppressions must work as for the line rules.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis.concurrency import _Analyzer, analyze_paths
from repro.analysis.engine import Violation, lint_file
from repro.analysis.__main__ import main

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
                        with self.db.transaction():
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
                    with self.db.transaction():
                        pass
            """)
        found = analyze_paths([tmp_path])
        # Caught twice: at the call site (the callee may acquire txn
        # under the leaf) and inside the helper (its entry context — the
        # intersection of its call sites — holds the leaf).
        assert codes(found) == ["QB401", "QB401"]

    #: a database whose transaction() takes its write lock, then the WAL's
    DATABASE = """
        import threading

        class WriteAheadLog:
            def __init__(self):
                self._txn_lock = threading.RLock()

            def transaction(self):
                return self._txn_lock

        class Database:
            def __init__(self):
                self._rwlock = threading.RLock()
                self.wal = WriteAheadLog()

            def transaction(self):
                with self._rwlock:
                    with self.wal.transaction():
                        pass

            def execute(self, sql):
                with self._rwlock:
                    pass
        """

    def test_a_statement_inside_a_database_transaction_is_clean(self, tmp_path):
        # QueryServer._execute_write's shape: execute() re-enters the
        # db.rwlock that the database's transaction() took before txn.
        fixture(tmp_path, self.DATABASE + """
        class Server:
            def __init__(self):
                self.db = Database()

            def write(self, sql):
                with self.db.transaction():
                    return self.db.execute(sql)
        """)
        assert codes(analyze_paths([tmp_path])) == []

    def test_qb401_db_rwlock_first_taken_under_a_wal_transaction(self, tmp_path):
        fixture(tmp_path, self.DATABASE + """
        class Store:
            def __init__(self):
                self.db = Database()
                self.wal = WriteAheadLog()

            def bad(self, sql):
                with self.wal.transaction():
                    return self.db.execute(sql)
        """)
        found = analyze_paths([tmp_path])
        # At the call site, and inside execute(), whose one caller holds txn.
        assert codes(found) == ["QB401", "QB401"]
        assert all("'db.rwlock'" in v.message and "'txn' is held" in v.message
                   for v in found)

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

    def test_qb411_a_documented_attribute_outside_its_lock(self, tmp_path):
        # TableStats' shape: a doc comment above, the guard on the
        # assignment, and a method that forgets the lock.
        fixture(tmp_path, """
            import threading

            class TableStats:
                def __init__(self):
                    self._lock = threading.Lock()
                    #: identity stamp of the table state the stats describe
                    self.stamp = None  # guarded_by: _lock

                def restamp(self, table):
                    self.stamp = (table.uid, table.mutations)
            """)
        found = analyze_paths([tmp_path])
        assert codes(found) == ["QB411"]
        assert "'stamp' is guarded by 'db.stats'" in found[0].message

    def test_qb413_an_annotation_that_checks_nothing(self, tmp_path):
        fixture(tmp_path, """
            import threading

            _total = 0  # guarded_by: _TOTAL_LOCK

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    #: guarded_by: _lock
                    self.stamp = None
                    self.rows = 0  # guarded_by: _rows
                    self.pins = 0  # guarded_by: db.version

                def restamp(self):
                    self.stamp = 1
                    self.pins += 1
            """)
        found = analyze_paths([tmp_path])
        # The module global and the comment on the line above bind to no
        # attribute, `_rows` is no lock; the dotted hierarchy key binds
        # whole, so the unlocked `pins += 1` is caught.
        assert [(v.rule, v.line) for v in found] == [
            ("QB413", 4), ("QB413", 9), ("QB413", 11), ("QB411", 16)]
        assert "'_rows' names no lock" in found[2].message
        assert "'db.version'" in found[3].message

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
                    self.pool = pool

                def bad(self):
                    with self.transaction():
                        self.pool.submit(len)

                def fine_after_the_lock(self):
                    with self.transaction():
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

            class Database:
                def __init__(self):
                    self._rwlock = threading.RLock()
                    self._lock = threading.Lock()
                    self.count = 0  # guarded_by: _lock
                    self.nesting = 0  # guarded_by: db.rwlock

                def good(self):
                    with self._rwlock:
                        self.nesting += 1
                        with self._rwlock:
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

    def test_every_guard_comment_binds_to_a_lock_the_tree_takes(self):
        files = [(path, path.read_text(encoding="utf-8"))
                 for path in sorted(SRC_REPRO.rglob("*.py"))]
        analyzer = _Analyzer([(p, s, ast.parse(s)) for p, s in files])
        analyzer.collect_guards()
        analyzer.walk_all()
        taken = {acquire.key for acquire in analyzer.acquires}
        comments = sum(s.count("guarded_by:") for p, s in files
                       if p.parent.name != "analysis")
        assert analyzer.unbound == []
        assert len(analyzer.guards) == comments
        assert set(analyzer.guards.values()) <= taken

    def test_field_types_do_not_depend_on_module_order(self):
        """A dataclass field's annotation is resolved once every class is
        known: ``MedicalLoader.lfm: LongFieldManager`` (``repro.storage``
        sorts after ``repro.medical``) types ``self.lfm`` in ``_unit``."""
        from repro.analysis.callgraph import build_index

        files = [(path, ast.parse(path.read_text(encoding="utf-8")))
                 for path in sorted(SRC_REPRO.rglob("*.py"))]
        forward, backward = build_index(files), build_index(files[::-1])
        assert forward.attr_types == backward.attr_types
        assert forward.attr_types["MedicalLoader"]["lfm"] == {"LongFieldManager"}
        unit = forward.functions["repro.medical.loader:MedicalLoader._unit"]
        calls = {node.func.attr: forward.resolve_call(unit, node)
                 for node in ast.walk(unit.node) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)}
        assert calls["transaction"] == {"repro.db.database:Database.transaction"}
        assert calls["on_rollback"] == {"repro.storage.lfm:LongFieldManager.on_rollback"}


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
# command line
# --------------------------------------------------------------------- #


class TestCli:
    def test_one_command_runs_the_concurrency_pass(self, tmp_path, capsys):
        fixture(tmp_path, bad_mutation())
        assert main([str(tmp_path), "--rule", "no-broad-except"]) == 1
        assert "QB411" in capsys.readouterr().out

    def test_removed_flags_are_usage_errors(self, tmp_path):
        fixture(tmp_path, bad_mutation())
        for flag in ("--concurrency", "--baseline=x.json", "--write-baseline=x.json"):
            with pytest.raises(SystemExit) as exc:
                main([str(tmp_path), flag])
            assert exc.value.code == 2

    def test_self_check_entry_point(self):
        """The CI self-check: the shipped tree passes its own analyzer."""
        assert main([str(SRC_REPRO)]) == 0
