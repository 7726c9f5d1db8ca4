"""The immediate-grant fast path must be invisible to accounting.

``LockManager.lock_row_fast`` promises that a True return leaves the
manager exactly as driving the ``lock_row`` generator to completion
would, and that a False return mutates nothing.  The differential test
replays one operation sequence against two managers over identical
chains -- one tries the fast path first and falls back to the generator,
the other always drives the generator -- and compares every piece of
accounting after every operation.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.des import Environment
from repro.errors import DeadlockError, LockManagerError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockManager
from repro.lockmgr.modes import LockMode
from tests.conftest import run_process

ROW_MODES = (LockMode.S, LockMode.U, LockMode.X)
TABLE_MODES = (LockMode.IS, LockMode.IX, LockMode.S, LockMode.X)


def test_fast_path_rechecks_maxlocks_after_an_in_request_refresh():
    """A refresh tick inside the request can lower MAXLOCKS before the
    row step's check; the fast path must not grant on the stale value."""
    box = [1.0]

    def build():
        env = Environment()
        manager = LockManager(
            env, LockBlockChain(1, capacity_per_block=100),
            maxlocks_provider=lambda: box[0], refresh_period=3,
        )
        box[0] = 1.0
        manager.refresh_maxlocks()
        run_process(env, manager.lock_row(1, 0, 0, LockMode.S))
        box[0] = 0.02  # limit 2 slots once re-read
        return env, manager

    env, generator = build()
    run_process(env, generator.lock_row(1, 0, 1, LockMode.S))
    assert generator.app_slots(1) == 1
    assert generator.stats.escalations.count == 1

    env, fast = build()
    if not fast.lock_row_fast(1, 0, 1, LockMode.S):
        run_process(env, fast.lock_row(1, 0, 1, LockMode.S))
    assert fast.app_slots(1) == generator.app_slots(1)
    assert fast.stats == generator.stats
    assert fast.maxlocks_fraction == generator.maxlocks_fraction == 0.02
    fast.check_invariants()


class _Side:
    """One manager plus the DES that drives its generator requests."""

    def __init__(self, box, refresh_period, capacity, growth_budget, use_fast):
        self.env = Environment()
        self.growth_left = growth_budget
        self.manager = LockManager(
            self.env,
            LockBlockChain(2, capacity_per_block=capacity),
            growth_provider=self._grow,
            maxlocks_provider=lambda: box[0],
            refresh_period=refresh_period,
        )
        self.use_fast = use_fast
        self.outcomes = []

    def _grow(self, wanted):
        granted = min(wanted, self.growth_left)
        self.growth_left -= granted
        return granted

    def _drive(self, index, generator):
        try:
            yield from generator
            self.outcomes.append((index, "ok"))
        except (DeadlockError, LockManagerError) as exc:
            self.outcomes.append((index, type(exc).__name__))

    def lock_row(self, index, app, table, row, mode):
        if self.use_fast and self.manager.lock_row_fast(app, table, row, mode):
            self.outcomes.append((index, "ok"))
            return
        self.env.process(self._drive(index, self.manager.lock_row(app, table, row, mode)))
        self.env.run()

    def lock_table(self, index, app, table, mode):
        self.env.process(self._drive(index, self.manager.lock_table(app, table, mode)))
        self.env.run()

    def release_all(self, app):
        self.manager.release_all(app)
        self.env.run()

    def snapshot(self):
        m = self.manager
        blocks = sorted(m.chain._all_blocks, key=lambda b: b.block_id)
        return {
            "stats": dataclasses.asdict(m.stats),
            "maxlocks_fraction": m.maxlocks_fraction,
            "requests_since_refresh": m._requests_since_refresh,
            "app_slots": {a: n for a, n in m._app_slots.items() if n},
            "app_rows": {a: n for a, n in m._app_row_counts.items() if n},
            "holders": {
                repr(res): {
                    app: (held.mode, held.count)
                    for app, held in obj.granted.items()
                }
                for res, obj in m._objects.items()
            },
            "waiting": sorted(m.waiting_apps()),
            "used_slots": m.chain.used_slots,
            "block_used": [b.used for b in blocks],
            "free_list": [blocks.index(b) for b in m.chain.iter_list()],
            "outcomes": self.outcomes,
        }


_lock_op = st.tuples(
    st.just("lock"),
    st.integers(1, 3),             # app
    st.integers(0, 1),             # table
    st.integers(0, 5),             # row
    st.sampled_from(ROW_MODES),
)
_table_op = st.tuples(
    st.just("table"), st.integers(1, 3), st.integers(0, 1),
    st.sampled_from(TABLE_MODES),
)
_release_op = st.tuples(st.just("release"), st.integers(1, 3))
_fraction_op = st.tuples(st.just("fraction"), st.sampled_from((0.05, 0.2, 0.5, 1.0)))

_ops = st.lists(
    st.one_of(
        _lock_op, _lock_op, _lock_op, _lock_op,  # row requests dominate
        _table_op, _release_op, _fraction_op,
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(
    refresh_period=st.sampled_from((1, 2, 3, 128)),
    capacity=st.integers(4, 12),
    growth_budget=st.integers(0, 2),
    fraction=st.sampled_from((0.1, 0.3, 1.0)),
    ops=_ops,
)
def test_fast_path_matches_generator(refresh_period, capacity, growth_budget, fraction, ops):
    box = [fraction]
    fast = _Side(box, refresh_period, capacity, growth_budget, use_fast=True)
    slow = _Side(box, refresh_period, capacity, growth_budget, use_fast=False)
    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "fraction":
            box[0] = op[1]
            continue
        app = op[1]
        if kind != "release" and app in slow.manager.waiting_apps():
            continue  # a parked application issues nothing but a rollback
        for side in (fast, slow):
            if kind == "lock":
                side.lock_row(index, *op[1:])
            elif kind == "table":
                side.lock_table(index, *op[1:])
            else:
                side.release_all(app)
        assert fast.snapshot() == slow.snapshot(), f"diverged at op {index}: {op}"
        fast.manager.check_invariants()
        slow.manager.check_invariants()
