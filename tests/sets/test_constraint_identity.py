"""Constraint identity: equal by canonical key, hash cached, never pickled.

The cached hash is ``hash(key())``, which depends on the interpreter's string
hash seed.  A worker started with ``spawn`` or ``forkserver`` has its own
seed, so an unpickled constraint must hash afresh or it would never dedup
against an equal constraint built in the worker.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

from repro.sets import EQ, GE, BasicSet, Constraint, LinExpr, Space

SPACE = Space("S", ("i", "j"), ("N",))


def _fresh_constraints() -> list[Constraint]:
    return [
        Constraint(LinExpr({"i": 2, "j": -2}, 4), GE),
        Constraint(LinExpr({"N": 1, "i": -1}, -1), GE),
        Constraint(LinExpr({"j": 3, "i": -3}), EQ),
    ]


def _merge_in_worker(constraints: list[Constraint]) -> tuple[int, list[Constraint]]:
    """Dedup unpickled constraints against equal ones built in this process."""
    merged = BasicSet(SPACE, list(constraints) + _fresh_constraints())
    return len(merged.constraints), list(merged.constraints)


class TestEqualityAndHash:
    def test_equal_by_key_regardless_of_coefficient_order(self):
        a = Constraint(LinExpr({"i": 1, "j": 2}, 3), GE)
        b = Constraint(LinExpr({"j": 2, "i": 1}, 3), GE)
        assert a == b and hash(a) == hash(b) == hash(a.key())
        assert a != Constraint(LinExpr({"i": 1, "j": 2}, 3), EQ)
        assert a != Constraint(LinExpr({"i": 1, "j": 2}, 4), GE)

    def test_basic_set_merges_equal_constraints(self):
        merged = BasicSet(SPACE, _fresh_constraints() + _fresh_constraints())
        assert len(merged.constraints) == 3


class TestPickling:
    def test_pickle_carries_only_the_fields(self):
        constraint = _fresh_constraints()[0].normalized()
        hash(constraint)
        assert {"_hash", "_key", "_normalized"} <= set(constraint.__dict__)
        restored = pickle.loads(pickle.dumps(constraint))
        assert not {"_hash", "_key", "_normalized"} & set(restored.__dict__)
        assert restored == constraint

    def test_spawn_worker_with_another_hash_seed_merges_duplicates(self, monkeypatch):
        # The worker inherits the environment: give it a seed other than ours.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        sent = [c.normalized() for c in _fresh_constraints()]
        for constraint in sent:
            hash(constraint)
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            count, returned = pool.submit(_merge_in_worker, sent).result(timeout=120)
        assert count == 3
        merged = BasicSet(SPACE, returned + _fresh_constraints())
        assert merged.constraints == tuple(sent)
