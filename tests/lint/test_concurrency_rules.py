"""Tests for the concurrency band (RPR401-RPR403).

Single-module behaviour goes through ``lint_text``; the cross-module
lock-order cycles — the cases that need the ProjectIndex — build small
package trees on disk and run the full engine over them.  Only RPR4xx
findings are inspected.
"""

import textwrap
from pathlib import Path

from repro.lint import lint_text
from repro.lint.engine import run


def concurrency(findings):
    return [f for f in findings if f.code.startswith("RPR4")]


def codes(source, *, module_name="repro.serve.mod"):
    result = lint_text(textwrap.dedent(source), module_name=module_name)
    return [f.code for f in concurrency(result.findings)]


def write_tree(root: Path, files: dict) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def tree_codes(tmp_path, files):
    write_tree(tmp_path, files)
    result = run([tmp_path / "repro"])
    return [(f.path.rsplit("/", 1)[-1], f.code)
            for f in concurrency(result.findings)]


PKG = {
    "repro/__init__.py": '"""pkg."""\n',
    "repro/serve/__init__.py": '"""pkg."""\n',
}


class TestUnguardedSharedStateRPR401:
    def test_unlocked_write_to_guarded_attr_is_flagged(self):
        assert codes("""\
            import threading


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def reset(self):
                    self._count = 0
            """) == ["RPR401"]

    def test_all_writes_locked_is_clean(self):
        assert codes("""\
            import threading


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def reset(self):
                    with self._lock:
                        self._count = 0
            """) == []

    def test_init_writes_are_exempt(self):
        # __init__ happens before the object is shared; the unlocked
        # assignment there is what *establishes* the guarded attribute.
        assert codes("""\
            import threading


            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = {}

                def put(self, key, value):
                    with self._lock:
                        self._state[key] = value
            """) == []

    def test_locked_read_establishes_guardedness(self):
        # No locked *write* exists, but the locked read in get() still
        # marks _closed as guarded — the serving-stack shutdown race.
        assert codes("""\
            import threading


            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._closed = False

                def get(self):
                    with self._lock:
                        if self._closed:
                            raise RuntimeError("closed")

                def close(self):
                    self._closed = True
            """) == ["RPR401"]

    def test_lockless_class_is_ignored(self):
        assert codes("""\
            class Plain:
                def set(self, value):
                    self._value = value
            """) == []


class TestLockOrderCycleRPR402:
    def test_opposite_orders_in_one_module_are_flagged(self):
        found = codes("""\
            import threading


            class Pair:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def ab(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def ba(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
            """)
        assert found == ["RPR402", "RPR402"]

    def test_consistent_order_is_clean(self):
        assert codes("""\
            import threading


            class Pair:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def ab(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def also_ab(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass
            """) == []

    def test_reacquiring_a_plain_lock_is_flagged(self):
        assert codes("""\
            import threading


            class Once:
                def __init__(self):
                    self._lock = threading.Lock()

                def recurse(self):
                    with self._lock:
                        with self._lock:
                            pass
            """) == ["RPR402"]

    def test_reacquiring_an_rlock_is_clean(self):
        assert codes("""\
            import threading


            class Reentrant:
                def __init__(self):
                    self._lock = threading.RLock()

                def recurse(self):
                    with self._lock:
                        with self._lock:
                            pass
            """) == []

    def test_cross_module_cycle_through_a_call(self, tmp_path):
        # locks_a holds A while *calling into* locks_b (which takes B),
        # and elsewhere takes B then A directly: a cycle only the
        # project-wide graph can see.  Both edges anchor in locks_a.
        found = tree_codes(tmp_path, {
            **PKG,
            "repro/serve/locks_b.py": """\
                import threading

                LOCK_B = threading.Lock()


                def take_b():
                    with LOCK_B:
                        pass
                """,
            "repro/serve/locks_a.py": """\
                import threading

                from repro.serve import locks_b

                LOCK_A = threading.Lock()


                def a_then_b():
                    with LOCK_A:
                        locks_b.take_b()


                def b_then_a():
                    with locks_b.LOCK_B:
                        with LOCK_A:
                            pass
                """,
        })
        assert found == [("locks_a.py", "RPR402"),
                         ("locks_a.py", "RPR402")]

    def test_fixing_the_callee_clears_the_cycle(self, tmp_path):
        # The A -> B edge exists only through the call into locks_b, so
        # editing only locks_b removes the cycle reported in locks_a.
        files = {
            **PKG,
            "repro/serve/locks_b.py": """\
                import threading

                LOCK_B = threading.Lock()


                def take_b():
                    with LOCK_B:
                        pass
                """,
            "repro/serve/locks_a.py": """\
                import threading

                from repro.serve import locks_b

                LOCK_A = threading.Lock()


                def a_then_b():
                    with LOCK_A:
                        locks_b.take_b()


                def b_then_a():
                    with locks_b.LOCK_B:
                        with LOCK_A:
                            pass
                """,
        }
        write_tree(tmp_path, files)
        before = run([tmp_path / "repro"])
        assert {f.code for f in concurrency(before.findings)} == {"RPR402"}
        (tmp_path / "repro/serve/locks_b.py").write_text(textwrap.dedent(
            """\
            import threading

            LOCK_B = threading.Lock()


            def take_b():
                pass
            """), encoding="utf-8")
        after = run([tmp_path / "repro"])
        assert concurrency(after.findings) == []

    def test_cycle_between_modules_that_do_not_import_each_other(
            self, tmp_path):
        # The textbook AB/BA deadlock split across two modules with no
        # import relation: forward holds A and calls take_b(), backward
        # holds B and calls take_a().  Each edge is reported where it
        # is taken.
        found = tree_codes(tmp_path, {
            **PKG,
            "repro/serve/locks_a.py": """\
                import threading

                LOCK_A = threading.Lock()


                def take_a():
                    with LOCK_A:
                        pass
                """,
            "repro/serve/locks_b.py": """\
                import threading

                LOCK_B = threading.Lock()


                def take_b():
                    with LOCK_B:
                        pass
                """,
            "repro/serve/forward.py": """\
                from repro.serve.locks_a import LOCK_A
                from repro.serve.locks_b import take_b


                def a_then_b():
                    with LOCK_A:
                        take_b()
                """,
            "repro/serve/backward.py": """\
                from repro.serve.locks_a import take_a
                from repro.serve.locks_b import LOCK_B


                def b_then_a():
                    with LOCK_B:
                        take_a()
                """,
        })
        assert sorted(found) == [("backward.py", "RPR402"),
                                 ("forward.py", "RPR402")]

    def test_cross_module_consistent_order_is_clean(self, tmp_path):
        assert tree_codes(tmp_path, {
            **PKG,
            "repro/serve/locks_b.py": """\
                import threading

                LOCK_B = threading.Lock()


                def take_b():
                    with LOCK_B:
                        pass
                """,
            "repro/serve/locks_a.py": """\
                import threading

                from repro.serve import locks_b

                LOCK_A = threading.Lock()


                def a_then_b():
                    with LOCK_A:
                        locks_b.take_b()
                """,
        }) == []


class TestBlockingWhileLockedRPR403:
    def test_sleep_under_lock_is_flagged(self):
        assert codes("""\
            import threading
            import time


            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def poll(self):
                    with self._lock:
                        time.sleep(0.1)
            """) == ["RPR403"]

    def test_sleep_outside_lock_is_clean(self):
        assert codes("""\
            import threading
            import time


            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def poll(self):
                    with self._lock:
                        pass
                    time.sleep(0.1)
            """) == []

    def test_join_under_lock_is_flagged(self):
        assert codes("""\
            import threading


            class Owner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._worker = threading.Thread(target=print)

                def close(self):
                    with self._lock:
                        self._worker.join()
            """) == ["RPR403"]
