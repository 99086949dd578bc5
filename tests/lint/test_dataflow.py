"""Tests for the CFG/dataflow substrate under the RPR4xx band.

Covers the layers directly: CFG shapes for every structured statement
``build_cfg`` handles, and the must-hold lock lattice (intersection
join at merges) solved to its fixed point.
"""

import ast
import textwrap

from repro.lint.dataflow import (
    LockModel,
    LockStateAnalysis,
    build_cfg,
    held_tokens,
    iter_op_states,
    solve,
)


def fn_cfg(source):
    tree = ast.parse(textwrap.dedent(source))
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return fn, build_cfg(fn)


def op_kinds(cfg):
    return [op.kind for block_id in cfg.rpo()
            for op in cfg.blocks[block_id].ops]


def block_of(cfg, kind, lineno):
    """The block holding the op of ``kind`` whose node starts at ``lineno``."""
    for block in cfg.blocks.values():
        for op in block.ops:
            if op.kind == kind and op.node.lineno == lineno:
                return block
    raise AssertionError(f"no {kind!r} op at line {lineno}")


class TestCfgShapes:
    def test_straight_line_is_one_block(self):
        _, cfg = fn_cfg("""\
            def f():
                a = 1
                b = a + 1
                return b
            """)
        entry = cfg.blocks[cfg.entry_id]
        assert [op.kind for op in entry.ops] == ["stmt"] * 3
        assert entry.succs == [cfg.exit_id]
        assert not any(block.ops for block_id, block in cfg.blocks.items()
                       if block_id != cfg.entry_id)

    def test_if_else_branches_and_join(self):
        _, cfg = fn_cfg("""\
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """)
        test_block = block_of(cfg, "test", 2)
        assert len(test_block.succs) == 2
        then_id, else_id = test_block.succs
        join = block_of(cfg, "stmt", 6)
        assert set(join.preds) == {then_id, else_id}

    def test_while_has_back_edge_and_exit_edge(self):
        _, cfg = fn_cfg("""\
            def f(x):
                while x:
                    x = x - 1
                return x
            """)
        head = block_of(cfg, "test", 2)
        body = block_of(cfg, "stmt", 3)
        after = block_of(cfg, "stmt", 4)
        assert set(head.succs) == {body.block_id, after.block_id}
        assert head.block_id in body.succs  # the back edge

    def test_for_loop_head_binds_target(self):
        _, cfg = fn_cfg("""\
            def f(items):
                for item in items:
                    use(item)
                done()
            """)
        head = block_of(cfg, "for", 2)
        body = block_of(cfg, "stmt", 3)
        after = block_of(cfg, "stmt", 4)
        assert set(head.succs) == {body.block_id, after.block_id}
        assert head.block_id in body.succs

    def test_break_jumps_past_the_loop(self):
        _, cfg = fn_cfg("""\
            def f(items):
                for item in items:
                    break
                done()
            """)
        after = block_of(cfg, "stmt", 4)
        head = block_of(cfg, "for", 2)
        # Both the loop head (exhaustion) and the break block reach it.
        assert len(after.preds) == 2
        assert head.block_id in after.preds

    def test_try_handler_reachable_from_body(self):
        _, cfg = fn_cfg("""\
            def f():
                try:
                    risky()
                except ValueError:
                    fallback()
                done()
            """)
        handler = block_of(cfg, "stmt", 5)
        after = block_of(cfg, "stmt", 6)
        assert handler.block_id in \
            {p for block in cfg.blocks.values() if block.succs
             for p in block.succs} or handler.preds
        assert handler.preds  # reachable via the dispatch block
        assert handler.block_id in after.preds or any(
            handler.block_id in cfg.blocks[p].preds for p in after.preds)

    def test_with_desugars_to_enter_and_exit(self):
        _, cfg = fn_cfg("""\
            def f(lock):
                with lock:
                    work()
                done()
            """)
        kinds = op_kinds(cfg)
        assert kinds.index("enter") < kinds.index("exit")
        assert kinds.count("enter") == kinds.count("exit") == 1

    def test_code_after_return_is_dropped(self):
        _, cfg = fn_cfg("""\
            def f():
                return 1
                unreachable()
            """)
        assert all(op.node.lineno != 3
                   for block in cfg.blocks.values() for op in block.ops)

    def test_while_else_lives_on_the_normal_exit_path(self):
        _, cfg = fn_cfg("""\
            def f(x):
                while x:
                    x = x - 1
                else:
                    cleanup()
                done()
            """)
        head = block_of(cfg, "test", 2)
        els = block_of(cfg, "stmt", 5)
        after = block_of(cfg, "stmt", 6)
        # The else body runs when the loop exhausts, i.e. straight off
        # the head's false edge, and flows on into the trailing code.
        assert els.block_id in head.succs
        assert after.block_id == els.block_id or \
            after.block_id in els.succs

    def test_try_finally_joins_body_and_handler(self):
        _, cfg = fn_cfg("""\
            def f():
                try:
                    risky()
                except ValueError:
                    fallback()
                finally:
                    close()
                done()
            """)
        final = block_of(cfg, "stmt", 7)
        body = block_of(cfg, "stmt", 3)
        handler = block_of(cfg, "stmt", 5)
        # Both the normal path and the handled path funnel into the
        # finally block before the trailing code.
        assert body.block_id in final.preds
        assert handler.block_id in final.preds

    def test_bare_try_finally_runs_on_the_propagation_path(self):
        _, cfg = fn_cfg("""\
            def f():
                try:
                    risky()
                finally:
                    close()
                done()
            """)
        final = block_of(cfg, "stmt", 5)
        # With no handler the exception still executes the finally
        # body on its way out, so the dispatch block reaches it too.
        assert len(final.preds) >= 2

    def test_rpo_starts_at_entry(self):
        _, cfg = fn_cfg("""\
            def f(x):
                if x:
                    a = 1
                return x
            """)
        order = cfg.rpo()
        assert order[0] == cfg.entry_id
        assert set(order) <= set(cfg.blocks)


def held_at_line(source, lineno):
    """Held lock tokens immediately before the op starting at ``lineno``."""
    fn, cfg = fn_cfg(source)
    model = LockModel(self_locks={"_lock", "_a", "_b"}, global_locks=set())
    analysis = LockStateAnalysis(model)
    solution = solve(cfg, analysis)
    for op, state in iter_op_states(cfg, analysis, solution):
        if op.kind == "stmt" and op.node.lineno == lineno:
            return held_tokens(state)
    raise AssertionError(f"no stmt op at line {lineno}")


class TestLockLattice:
    def test_held_inside_with(self):
        assert held_at_line("""\
            def f(self):
                with self._lock:
                    work()
            """, 3) == ("self._lock",)

    def test_released_after_with(self):
        assert held_at_line("""\
            def f(self):
                with self._lock:
                    work()
                after()
            """, 4) == ()

    def test_one_sided_acquire_does_not_survive_the_join(self):
        # Must-analysis: held only if held on every path into the merge.
        assert held_at_line("""\
            def f(self, flag):
                if flag:
                    self._lock.acquire()
                after()
            """, 4) == ()

    def test_acquire_on_all_paths_with_same_region_survives(self):
        assert held_at_line("""\
            def f(self):
                self._lock.acquire()
                if probe():
                    work()
                after()
                self._lock.release()
            """, 5) == ("self._lock",)

    def test_nested_with_holds_both(self):
        assert held_at_line("""\
            def f(self):
                with self._a:
                    with self._b:
                        work()
            """, 4) == ("self._a", "self._b")

    def test_explicit_release_clears_the_token(self):
        assert held_at_line("""\
            def f(self):
                self._lock.acquire()
                self._lock.release()
                after()
            """, 4) == ()
