"""Worker-pool dispatch: tasks reach a worker on submit and on completion.

The supervisor's poll timeout only paces deadline and liveness checks,
so the dispatch cases never wait on it: each asserts pool state right
after the call that must have dispatched (no sleeps, no timing bounds).
Fake workers stand in for processes, except in one case that drives a
real ``fork`` pool end to end.
"""

import queue
import threading

from repro.experiments.registry import get_spec, validate_params
from repro.gateway.pool import WorkerProcessPool, _Worker


class _LiveProcess:
    """Stands in for a worker process that never dies."""

    pid = 0

    def is_alive(self):
        return True


def fake_pool(fakes=1):
    """An unstarted pool holding ``fakes`` ready, idle fake workers.

    Each fake worker's task queue is a plain :class:`queue.Queue` inbox,
    so a test reads what was dispatched to it.
    """
    events = []
    pool = WorkerProcessPool(
        workers=1, on_event=events.append, start_method="fork"
    )
    inboxes = [queue.Queue() for _ in range(fakes)]
    for index, inbox in enumerate(inboxes):
        pool._workers.append(
            _Worker(
                index=index, process=_LiveProcess(), task_queue=inbox, ready=True
            )
        )
    return pool, inboxes, events


def sent_ids(inbox):
    """Task ids dispatched to one fake worker so far, oldest first."""
    return [item[0] for item in inbox.queue]


class TestDispatchOnSubmit:
    def test_real_fork_worker_is_busy_when_submit_returns(self, tmp_path):
        events = []
        pool = WorkerProcessPool(
            workers=1,
            on_event=events.append,
            cache_dir=str(tmp_path),
            start_method="fork",
        )
        pool.start()
        try:
            params = validate_params(
                get_spec("fleet-accuracy"), {"requests": 400}
            )
            pool.submit("run-1", "fleet-accuracy", params, "key-1")
            assert pool.busy_count() == 1
            assert pool.pending_count() == 0
        finally:
            pool.shutdown(drain_timeout=60.0)
        assert [event.kind for event in events] == ["started", "done"]

    def test_idle_worker_receives_the_task_inside_submit(self):
        pool, (inbox,), _ = fake_pool()
        pool.submit("a", "unfold", {}, "key-a")
        assert list(inbox.queue) == [("a", "unfold", {}, "key-a")]
        assert pool.busy_count() == 1
        assert pool.pending_count() == 0

    def test_busy_pool_keeps_task_pending_until_done_frees_a_worker(self):
        pool, (inbox,), events = fake_pool()
        pool.submit("a", "unfold", {}, "key-a")
        pool.submit("b", "unfold", {}, "key-b")
        assert sent_ids(inbox) == ["a"]
        assert pool.pending_count() == 1
        pool._handle_event(("done", 0, "a", {"result": {}}, False, {}))
        assert [event.kind for event in events] == ["done"]
        assert sent_ids(inbox) == ["a", "b"]
        assert pool.pending_count() == 0
        assert pool.busy_count() == 1

    def test_failed_event_also_frees_the_worker(self):
        pool, (inbox,), events = fake_pool()
        pool.submit("a", "unfold", {}, "key-a")
        pool.submit("b", "unfold", {}, "key-b")
        pool._handle_event(("failed", 0, "a", "repro-error", "bad"))
        assert [event.kind for event in events] == ["failed"]
        assert sent_ids(inbox) == ["a", "b"]

    def test_worker_not_yet_ready_gets_the_task_on_its_ready_event(self):
        pool, (inbox,), _ = fake_pool()
        pool._workers[0].ready = False
        pool.submit("a", "unfold", {}, "key-a")
        assert sent_ids(inbox) == []
        pool._handle_event(("ready", 0, 1234))
        assert sent_ids(inbox) == ["a"]


class _LockCheckedList(list):
    """A pending list that fails any change made without the pool lock."""

    def __init__(self, lock):
        super().__init__()
        self._lock = lock

    def append(self, item):
        assert self._lock.locked(), "pending appended without the lock"
        super().append(item)

    def insert(self, index, item):
        assert self._lock.locked(), "pending inserted without the lock"
        super().insert(index, item)

    def pop(self, index=-1):
        assert self._lock.locked(), "pending popped without the lock"
        return super().pop(index)


class TestDispatchHoldsTheLock:
    # submit() and every worker event dispatch from their own threads,
    # so taking a task and claiming a worker must be one locked step.

    def test_pending_changes_only_under_the_pool_lock(self):
        pool, inboxes, events = fake_pool(fakes=2)
        pool._pending = _LockCheckedList(pool._lock)
        for task in "abc":
            pool.submit(task, "unfold", {}, f"key-{task}")
        assert [sent_ids(inbox) for inbox in inboxes] == [["a"], ["b"]]
        pool._handle_event(("done", 0, "a", {}, False, {}))
        pool._handle_event(("failed", 1, "b", "repro-error", "bad"))
        assert [sent_ids(inbox) for inbox in inboxes] == [["a", "c"], ["b"]]
        assert [event.kind for event in events] == ["done", "failed"]
        assert pool.pending_count() == 0
        assert pool.busy_count() == 1


class _ShutdownBeforeFirstAcquire:
    """Wraps the pool lock and runs ``shutdown()`` before its first use.

    Wrapping the first lock acquisition inside ``submit()`` lands the
    whole drain between ``submit()`` being entered and the task being
    appended: the interleaving that lost tasks when the draining check
    ran outside the lock.
    """

    def __init__(self, pool):
        self._pool = pool
        self._inner = threading.Lock()
        self._armed = True

    def __enter__(self):
        if self._armed:
            self._armed = False
            self._pool.shutdown()
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


class TestSubmitShutdownRace:
    # Worker-less pools: shutdown() has no process to stop or join.

    def test_task_submitted_during_drain_is_cancelled_not_lost(self):
        pool, _, events = fake_pool(fakes=0)
        pool._lock = _ShutdownBeforeFirstAcquire(pool)
        pool.submit("late", "unfold", {}, "key-late")
        assert [(e.kind, e.task_id) for e in events] == [
            ("cancelled", "late")
        ]
        assert pool.pending_count() == 0

    def test_submit_after_shutdown_is_cancelled(self):
        pool, _, events = fake_pool(fakes=0)
        pool.shutdown()
        pool.submit("late", "unfold", {}, "key-late")
        assert [(e.kind, e.task_id) for e in events] == [
            ("cancelled", "late")
        ]
        assert pool.pending_count() == 0
