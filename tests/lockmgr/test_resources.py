"""Tests for resource identifiers, focused on the hash contract.

ResourceId hashes must be pure functions of the id's *value*: sets of
resource ids sit on behaviour-relevant paths (e.g. an application's
held-lock set drains in iteration order at release), so a hash that
varied between processes -- as string hashes do under PYTHONHASHSEED
randomization -- would make the simulation's event order differ from
process to process at the same seed.
"""

import os
import subprocess
import sys

import pytest

from repro.lockmgr.resources import (
    ResourceId,
    ResourceKind,
    page_resource,
    row_resource,
    table_resource,
)


class TestValidation:
    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            row_resource(-1, 0)
        with pytest.raises(ValueError):
            row_resource(0, -1)
        with pytest.raises(ValueError):
            page_resource(0, -1)

    def test_kind_shape_enforced(self):
        with pytest.raises(ValueError):
            ResourceId(ResourceKind.TABLE, 1, row_id=2)
        with pytest.raises(ValueError):
            ResourceId(ResourceKind.ROW, 1)


class TestHashContract:
    def test_row_resource_matches_the_generic_constructor(self):
        fast = row_resource(3, 7)
        generic = ResourceId(ResourceKind.ROW, 3, row_id=7)
        assert fast == generic and hash(fast) == hash(generic)
        for name in ("kind", "table_id", "page_id", "row_id", "is_table", "is_row"):
            assert getattr(fast, name) == getattr(generic, name), name
        assert repr(fast) == repr(generic) == "T3.R7"

    def test_pickle_and_copy_round_trip(self):
        import copy
        import pickle

        for rid in (table_resource(4), page_resource(4, 1), row_resource(4, 9)):
            for clone in (pickle.loads(pickle.dumps(rid)), copy.deepcopy(rid)):
                assert clone == rid and type(clone) is type(rid)
                assert (clone.kind, clone.page_id, clone.row_id) == (
                    rid.kind, rid.page_id, rid.row_id,
                )

    def test_equal_values_equal_hashes(self):
        assert row_resource(3, 7) == row_resource(3, 7)
        assert hash(row_resource(3, 7)) == hash(row_resource(3, 7))
        assert row_resource(3, 7) != row_resource(3, 8)
        assert table_resource(3) != row_resource(3, 7)

    def test_hash_stable_across_hash_seeds(self):
        # A subprocess with a different PYTHONHASHSEED must compute the
        # same hashes; if this fails, set-of-ResourceId iteration order
        # (and with it event ordering) depends on the process.
        ids = "hash(table_resource(5)), hash(row_resource(5, 9)), hash(page_resource(5, 2))"
        script = f"from repro.lockmgr.resources import *; print([{ids}])"

        def run(hash_seed):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            return subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            ).stdout

        assert run("0") == run("12345")
