"""repro.sanitize.lockset: the Eraser-style race detector behind level 2.

Policy unit tests (eraser / publish / anylock) plus the regression the
sanitizer exists for: a *threaded* unlocked write that ``REPRO_SANITIZE=1``
cannot see (no unlucky interleaving required) and level 2 reports
deterministically.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import SanitizerError
from repro.sanitize import lockset


@pytest.fixture()
def armed():
    lockset.arm()
    yield
    lockset.disarm()


class Owner:
    pass


def _in_thread(fn):
    """Run ``fn`` in a worker thread; re-raise anything it raised."""
    box: list[BaseException] = []

    def run():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            box.append(exc)

    t = threading.Thread(target=run)
    t.start()
    t.join()
    if box:
        raise box[0]


class TestEraserPolicy:
    def test_single_thread_never_reports(self, armed):
        owner = Owner()
        for _ in range(10):
            lockset.write(owner, "field")  # exclusive to one thread: fine

    def test_common_lock_is_clean(self, armed):
        owner = Owner()
        lock = lockset.TrackedLock()

        def locked_write():
            with lock:
                lockset.write(owner, "field")

        locked_write()
        _in_thread(locked_write)
        locked_write()

    def test_empty_intersection_raises(self, armed):
        owner = Owner()
        l1, l2 = lockset.TrackedLock(), lockset.TrackedLock()
        with l1:
            lockset.write(owner, "field")  # first thread: deferred

        def write_under_l2():
            with l2:
                lockset.write(owner, "field")  # shared now; candidates={l2}

        _in_thread(write_under_l2)
        with pytest.raises(SanitizerError, match="lockset .* went empty"):
            with l1:
                lockset.write(owner, "field")  # {l2} & {l1} = {}

    def test_reads_alone_never_report(self, armed):
        # written_shared never becomes true: read-only sharing is fine
        # even with an empty candidate set.
        owner = Owner()
        lockset.read(owner, "field")
        _in_thread(lambda: lockset.read(owner, "field"))
        lockset.read(owner, "field")


class TestTrackerState:
    def test_purge_finalizer_may_fire_inside_the_tracker(self, armed):
        """A dead owner's purge finalizer runs wherever the garbage
        collector happens to fire — including inside ``_access`` on the
        thread already holding ``_states_lock`` (owners caught in a
        traceback cycle are freed by the GC, not by refcount).  Taking
        the lock there hung the whole suite about one run in 25."""
        owner = Owner()
        lockset.write(owner, "field")
        key = (id(owner), "field")
        assert key in lockset._states

        def collect_while_locked():
            with lockset._states_lock:
                lockset._purge(key)

        t = threading.Thread(target=collect_while_locked, daemon=True)
        t.start()
        t.join(timeout=5.0)
        assert not t.is_alive(), "purge finalizer deadlocked on _states_lock"
        assert key not in lockset._states


class TestWeakerPolicies:
    def test_publish_allows_lockfree_reads(self, armed):
        owner = Owner()
        lockset.read(owner, "field", policy="publish")
        _in_thread(lambda: lockset.read(owner, "field", policy="publish"))
        lockset.read(owner, "field", policy="publish")

    def test_publish_requires_exclusive_writes(self, armed):
        owner = Owner()
        lockset.write(owner, "field", policy="publish")  # single-thread: ok
        with pytest.raises(SanitizerError, match="exclusive"):
            _in_thread(lambda: lockset.write(owner, "field", policy="publish"))

    def test_publish_accepts_exclusive_writes(self, armed):
        owner = Owner()
        lock = lockset.TrackedLock()
        with lock:
            lockset.write(owner, "field", policy="publish")

        def locked_write():
            with lock:
                lockset.write(owner, "field", policy="publish")

        _in_thread(locked_write)

    def test_anylock_accepts_shared_side(self, armed):
        owner = Owner()
        token = object()
        lockset.write(owner, "field", policy="anylock")

        def write_under_reader():
            lockset.note_acquire(token, exclusive=False)
            try:
                lockset.write(owner, "field", policy="anylock")
            finally:
                lockset.note_release(token, exclusive=False)

        _in_thread(write_under_reader)

    def test_anylock_rejects_no_lock_at_all(self, armed):
        owner = Owner()
        lockset.write(owner, "field", policy="anylock")
        with pytest.raises(SanitizerError, match="no tracked lock"):
            _in_thread(lambda: lockset.write(owner, "field", policy="anylock"))


class TestTrackedField:
    def test_descriptor_stores_and_reads(self):
        class C:
            f = lockset.TrackedField("publish")

        c = C()
        c.f = 41
        assert c.f == 41
        c.f = 42
        assert c.f == 42

    def test_missing_value_raises_attribute_error(self):
        class C:
            f = lockset.TrackedField()

        with pytest.raises(AttributeError):
            C().f

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            lockset.TrackedField("optimistic")

    def test_descriptor_reports_cross_thread_rebind(self, armed):
        class C:
            f = lockset.TrackedField("publish")

        c = C()
        c.f = 0
        with pytest.raises(SanitizerError):
            _in_thread(lambda: setattr(c, "f", 1))


class TestArming:
    def test_tracked_lock_factory_depends_on_level(self):
        lockset.disarm()
        assert isinstance(lockset.tracked_lock(), threading.Lock().__class__)
        try:
            lockset.arm()
            assert isinstance(lockset.tracked_lock(), lockset.TrackedLock)
        finally:
            lockset.disarm()

    def test_disarmed_tracker_is_inert(self):
        lockset.disarm()
        owner = Owner()
        lockset.write(owner, "field")
        _in_thread(lambda: lockset.write(owner, "field"))  # racy but unwatched


class TestThreadedRegression:
    """The gate: level 2 catches an unlocked write that level 1 misses."""

    class Counter:
        def __init__(self) -> None:
            self.value = 0

        def bump(self) -> None:
            lockset.write(self, "value")
            self.value += 1  # no lock anywhere: a latent data race

    def test_level_one_misses_the_race(self):
        # REPRO_SANITIZE=1 arms operand guards only — the lockset
        # tracker stays disarmed and the racy increment goes unreported.
        lockset.disarm()
        counter = self.Counter()
        counter.bump()
        _in_thread(counter.bump)
        counter.bump()
        assert counter.value == 3

    def test_level_two_reports_deterministically(self, armed):
        # Same program, no unlucky interleaving needed: the second
        # thread's first write already proves no lock protects the field.
        counter = self.Counter()
        counter.bump()
        with pytest.raises(SanitizerError, match="no lock protects"):
            _in_thread(counter.bump)
