"""Tests for the lease queue (repro/experiments/supervisor.py) and the
service journal (repro/service/queue.py).

The property under test is the queue's whole reason to exist: under
ANY interleaving of claim / renew / expire / revoke / complete / fail,
no cell is ever executed more than its bounded retry budget, no
result is ever accepted twice, and no cell is dropped — every cell
ends ``done``, ``failed`` or ``cancelled``.  The hypothesis machine
below drives random interleavings against a shadow model; directed
unit tests pin the individual transitions.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 rule)

from repro.experiments.parallel import RunPolicy
from repro.experiments.supervisor import (CANCELLED, DONE, FAILED,
                                          LEASED, PENDING, TERMINAL,
                                          LeaseQueue)
from repro.service.queue import Journal

FAST = RunPolicy(retries=2, backoff=0.01, backoff_max=0.02, jitter=0.0)


def make_queue(keys=("k0", "k1"), policy=FAST, ttl=10.0,
               job="job") -> LeaseQueue:
    q = LeaseQueue(policy=policy, lease_ttl=ttl)
    for i, key in enumerate(keys):
        q.add(job, key, f"wl{i}/variant")
    return q


class TestLeaseLifecycle:
    def test_claim_grants_fifo_with_increasing_tokens(self):
        q = make_queue(("a", "b"))
        c1 = q.claim("w1", now=0.0)
        c2 = q.claim("w2", now=0.0)
        assert (c1.key, c2.key) == ("a", "b")
        assert c1.state == LEASED and c1.lease.token == 1
        assert q.claim("w3", now=0.0) is None       # nothing pending

    def test_complete_settles_and_is_idempotent_noop_after(self):
        q = make_queue(("a",))
        c = q.claim("w1", 0.0)
        assert q.complete("a", "w1", c.lease.token)
        assert q.cells["a"].state == DONE
        # A second complete with the same token is stale: the lease
        # is gone; done state is immutable.
        assert not q.complete("a", "w1", 1)
        assert q.cells["a"].state == DONE

    def test_stale_token_result_is_rejected(self):
        q = make_queue(("a",), ttl=5.0)
        q.claim("w1", 0.0)
        # TTL passes; the sweep requeues, w2 claims with token 2.
        [(cell, disp, worker)] = q.expire(6.0)
        assert (disp, worker) == ("retry", "w1")
        c2 = q.claim("w2", 7.0)
        assert c2.lease.token == 2
        # w1's late result (token 1) must be discarded...
        assert not q.complete("a", "w1", 1)
        assert q.fail("a", "w1", 1, "late", 7.0) == "stale"
        # ...while w2's is accepted.
        assert q.complete("a", "w2", 2)

    def test_renew_extends_only_the_held_lease(self):
        q = make_queue(("a",), ttl=5.0)
        c = q.claim("w1", 0.0)
        assert q.renew("a", "w1", c.lease.token, now=4.0)
        assert c.lease.expiry == 9.0
        assert q.expire(8.0) == []                  # renewal held it
        assert not q.renew("a", "w2", 1, 4.0)       # wrong worker
        assert not q.renew("a", "w1", 2, 4.0)       # wrong token

    def test_expiry_requeues_once_with_attempts_preserved(self):
        q = make_queue(("a",), ttl=5.0)
        q.claim("w1", 0.0)
        assert len(q.expire(6.0)) == 1
        assert q.cells["a"].state == PENDING
        assert q.cells["a"].attempts == 1           # spent, not reset
        assert q.expire(7.0) == []                  # exactly once

    def test_backoff_gates_the_requeued_claim(self):
        q = make_queue(("a",), ttl=5.0)
        q.claim("w1", 0.0)
        q.expire(6.0)
        gate = q.cells["a"].not_before
        assert gate > 6.0
        assert q.claim("w2", 6.0) is None           # still gated
        assert q.claim("w2", gate) is not None

    def test_retry_budget_bounds_leases_then_fails(self):
        q = make_queue(("a",), policy=FAST, ttl=5.0)
        now = 0.0
        for expected in ("retry", "retry", "failed"):   # 1 + 2 retries
            cell = q.claim("w1", now)
            assert cell is not None
            assert q.fail("a", "w1", cell.lease.token, "boom",
                          now) == expected
            now = max(now + 1.0, q.cells["a"].not_before)
        assert q.cells["a"].state == FAILED
        assert q.cells["a"].attempts == 1 + FAST.retries
        assert q.claim("w1", now + 100.0) is None   # terminal

    def test_revoke_requeues_a_live_lease(self):
        q = make_queue(("a",))
        q.claim("w1", 0.0)
        assert q.revoke("a", "lease lost (injected)", 0.0) == "retry"
        assert q.cells["a"].state == PENDING
        assert q.revoke("a", "again", 0.0) is None  # nothing leased

    def test_shared_cell_across_jobs_is_deduped(self):
        q = LeaseQueue(policy=FAST)
        q.add("job1", "k", "wl/v")
        q.add("job2", "k", "wl/v")
        assert len(q.cells) == 1
        assert q.cells["k"].jobs == {"job1", "job2"}
        c = q.claim("w1", 0.0)
        q.complete("k", "w1", c.lease.token)
        assert q.job_settled("job1") and q.job_settled("job2")

    def test_cancel_only_abandons_unshared_pending_cells(self):
        q = LeaseQueue(policy=FAST)
        q.add("job1", "mine", "a/v")
        q.add("job1", "ours", "b/v")
        q.add("job2", "ours", "b/v")
        cancelled = q.cancel_job("job1")
        assert cancelled == ["mine"]
        assert q.cells["mine"].state == CANCELLED
        assert q.cells["ours"].state == PENDING     # job2 still wants it

    def test_cancel_lets_a_leased_cell_finish(self):
        q = LeaseQueue(policy=FAST)
        q.add("job1", "k", "a/v")
        c = q.claim("w1", 0.0)
        assert q.cancel_job("job1") == []           # in-flight: not cut
        assert q.cells["k"].state == LEASED
        assert q.complete("k", "w1", c.lease.token)

    def test_recovered_attempts_seed_the_budget(self):
        q = LeaseQueue(policy=FAST)
        q.add("job", "k", "wl/v", attempts=FAST.retries)
        c = q.claim("w1", 0.0)
        assert c.lease.token == FAST.retries + 1    # last allowed grant
        assert q.fail("k", "w1", c.lease.token, "x", 0.0) == "failed"

    def test_settle_marks_terminal_without_a_lease_cycle(self):
        q = make_queue(("a",))
        q.settle("a", DONE)
        assert q.cells["a"].state == DONE
        q.settle("a", FAILED)                       # terminal is sticky
        assert q.cells["a"].state == DONE

    def test_next_wakeup_reports_soonest_edge(self):
        q = make_queue(("a", "b"), ttl=5.0)
        assert q.next_wakeup(0.0) is None           # both claimable now
        q.claim("w1", 0.0)
        assert q.next_wakeup(0.0) == 5.0            # lease expiry
        q.expire(6.0)
        assert q.next_wakeup(6.0) == q.cells["a"].not_before

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            LeaseQueue(lease_ttl=0.0)


# -- property: arbitrary interleavings stay safe ----------------------------

class LeaseMachine(RuleBasedStateMachine):
    """Random interleavings of the full lease lifecycle against a
    shadow model.

    Checked after every step: at most one live lease per cell, grants
    bounded by ``1 + retries``, at most one accepted result per cell,
    terminal states immutable, and no cell ever dropped.
    """

    KEYS = ("k0", "k1", "k2")
    WORKERS = ("w1", "w2")

    def __init__(self):
        super().__init__()
        self.policy = FAST
        self.q = LeaseQueue(policy=self.policy, lease_ttl=5.0)
        for i, k in enumerate(self.KEYS):
            self.q.add("job", k, f"wl{i}/v")
        self.now = 0.0
        self.grants: dict[str, list[int]] = {k: [] for k in self.KEYS}
        self.accepted: dict[str, int] = {k: 0 for k in self.KEYS}
        self.frozen: dict[str, str] = {}    # key -> terminal state

    # -- rules -------------------------------------------------------------

    @rule(worker=st.sampled_from(WORKERS))
    def claim(self, worker):
        cell = self.q.claim(worker, self.now)
        if cell is not None:
            assert cell.key not in self.frozen
            tokens = self.grants[cell.key]
            if tokens:
                assert cell.lease.token > tokens[-1]   # strictly up
            tokens.append(cell.lease.token)

    @rule(key=st.sampled_from(KEYS), worker=st.sampled_from(WORKERS),
          token=st.integers(min_value=1, max_value=4))
    def complete(self, key, worker, token):
        held = self.q._holds(key, worker, token) is not None
        ok = self.q.complete(key, worker, token)
        assert ok == held           # fencing: only the live lease wins
        if ok:
            self.accepted[key] += 1
            self.frozen[key] = DONE

    @rule(key=st.sampled_from(KEYS), worker=st.sampled_from(WORKERS),
          token=st.integers(min_value=1, max_value=4))
    def fail(self, key, worker, token):
        held = self.q._holds(key, worker, token) is not None
        disp = self.q.fail(key, worker, token, "boom", self.now)
        assert (disp == "stale") == (not held)
        if disp == "failed":
            self.frozen[key] = FAILED

    @rule(key=st.sampled_from(KEYS), worker=st.sampled_from(WORKERS),
          token=st.integers(min_value=1, max_value=4))
    def renew(self, key, worker, token):
        held = self.q._holds(key, worker, token) is not None
        assert self.q.renew(key, worker, token, self.now) == held

    @rule(delta=st.floats(min_value=0.1, max_value=8.0))
    def advance_and_expire(self, delta):
        self.now += delta
        for cell, disp, _worker in self.q.expire(self.now):
            if disp == "failed":
                self.frozen[cell.key] = FAILED

    @rule(key=st.sampled_from(KEYS))
    def revoke(self, key):
        was_leased = self.q.cells[key].state == LEASED
        disp = self.q.revoke(key, "revoked", self.now)
        assert (disp is None) == (not was_leased)
        if disp == "failed":
            self.frozen[key] = FAILED

    # -- invariants --------------------------------------------------------

    @invariant()
    def nothing_dropped(self):
        assert set(self.q.cells) == set(self.KEYS)

    @invariant()
    def bounded_grants(self):
        for key in self.KEYS:
            assert len(self.grants[key]) <= 1 + self.policy.retries
            assert self.q.cells[key].attempts == \
                (len(self.grants[key])
                 if self.q.cells[key].state != DONE or self.grants[key]
                 else 0)

    @invariant()
    def at_most_one_accepted_result(self):
        for key in self.KEYS:
            assert self.accepted[key] <= 1

    @invariant()
    def terminal_states_are_sticky(self):
        for key, state in self.frozen.items():
            assert self.q.cells[key].state == state

    @invariant()
    def lease_shape(self):
        for cell in self.q.cells.values():
            assert (cell.state == LEASED) == (cell.lease is not None)

    def teardown(self):
        # Drive to quiescence: every cell must reach a terminal state
        # within its bounded budget — no interleaving can wedge or
        # drop a cell.
        for _ in range(8 * len(self.KEYS)):
            if all(c.state in TERMINAL for c in self.q.cells.values()):
                break
            self.now += 10.0                    # open every gate/TTL
            for cell, disp, _w in self.q.expire(self.now):
                if disp == "failed":
                    self.frozen[cell.key] = FAILED
            cell = self.q.claim("w1", self.now)
            if cell is not None:
                assert self.q.complete(cell.key, "w1",
                                       cell.lease.token)
        assert all(c.state in TERMINAL for c in self.q.cells.values())
        for key in self.KEYS:
            assert len(self.grants[key]) <= 1 + self.policy.retries


LeaseMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestLeaseInterleavings = LeaseMachine.TestCase


# -- journal ----------------------------------------------------------------

class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        j = Journal(tmp_path / "journal.jsonl")
        j.append("generation", generation=1)
        j.append("lease", key="k", worker="w1", attempt=1)
        j.close()
        records = Journal(tmp_path / "journal.jsonl").replay()
        assert [r["type"] for r in records] == ["generation", "lease"]
        assert records[1]["worker"] == "w1"
        assert all("ts" in r for r in records)

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        j = Journal(path)
        j.append("generation", generation=1)
        j.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "lease", "key"')    # writer died here
        records = Journal(path).replay()
        assert [r["type"] for r in records] == ["generation"]

    def test_generation_counts_restarts(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        assert Journal(path).generation() == 0     # no file yet
        for expected in (1, 2, 3):
            j = Journal(path)
            j.append("generation", generation=j.generation() + 1)
            j.append("job_submitted", job_id="x")
            j.close()
            assert Journal(path).generation() == expected

    def test_missing_file_replays_empty(self, tmp_path):
        assert Journal(tmp_path / "none.jsonl").replay() == []
