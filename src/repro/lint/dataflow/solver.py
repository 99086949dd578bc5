"""Generic forward dataflow solving over a :class:`~repro.lint.dataflow.
cfg.CFG`.

An analysis supplies an initial state, a join over predecessor states,
and a per-op transfer function; :func:`solve` iterates the blocks in
reverse post-order until the fixed point.  States must be immutable
values with structural equality (frozensets here) so convergence is
detected by comparison.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, TypeVar

from repro.lint.dataflow.cfg import CFG, Op

__all__ = ["ForwardAnalysis", "Solution", "State", "solve",
           "iter_op_states"]

State = TypeVar("State", bound=Hashable)

#: Iteration safety valve; real functions converge in a handful of
#: passes (lattice heights here are tiny).
_MAX_PASSES = 64


class ForwardAnalysis(Generic[State]):
    """Interface a forward dataflow analysis implements."""

    def initial(self) -> State:
        """State on entry to the function."""
        raise NotImplementedError

    def join(self, states: list[State]) -> State:
        """Merge predecessor out-states at a block boundary."""
        raise NotImplementedError

    def transfer(self, op: Op, state: State) -> State:
        """State after executing ``op`` in ``state``."""
        raise NotImplementedError


class Solution(Generic[State]):
    """Fixed-point result: in/out state per reachable block."""

    def __init__(self, block_in: dict[int, State],
                 block_out: dict[int, State]) -> None:
        self.block_in = block_in
        self.block_out = block_out


def solve(cfg: CFG, analysis: ForwardAnalysis[State]) -> Solution[State]:
    """Iterate ``analysis`` over ``cfg`` to its forward fixed point.

    Blocks unreachable from the entry stay absent from the solution
    (optimistic treatment: they contribute nothing to joins).
    """
    order = cfg.rpo()
    block_in: dict[int, State] = {}
    block_out: dict[int, State] = {}
    for _ in range(_MAX_PASSES):
        changed = False
        for block_id in order:
            block = cfg.blocks[block_id]
            if block_id == cfg.entry_id:
                in_state = analysis.initial()
            else:
                pred_states = [block_out[p] for p in block.preds
                               if p in block_out]
                if not pred_states:
                    continue
                in_state = analysis.join(pred_states)
            out_state = in_state
            for op in block.ops:
                out_state = analysis.transfer(op, out_state)
            if (block_in.get(block_id) != in_state
                    or block_out.get(block_id) != out_state):
                block_in[block_id] = in_state
                block_out[block_id] = out_state
                changed = True
        if not changed:
            break
    return Solution(block_in, block_out)


def iter_op_states(cfg: CFG, analysis: ForwardAnalysis[State],
                   solution: Solution[State]
                   ) -> Iterator[tuple[Op, State]]:
    """Yield every reachable op with the state *before* it executes."""
    for block_id in cfg.rpo():
        if block_id not in solution.block_in:
            continue
        state = solution.block_in[block_id]
        for op in cfg.blocks[block_id].ops:
            yield op, state
            state = analysis.transfer(op, state)

