"""The BLAS thread-count knob (``repro.nn.threads``).

The module talks to numpy's vendored BLAS via ctypes and degrades to an
informative no-op when no known runtime is found.  The tests exercise both
shapes: on this repository's pinned numpy the runtime is controllable, so the
set/get/context-manager round trips run for real; the no-op contract is
tested by stubbing resolution away.
"""

import pytest

from repro.nn import threads


@pytest.fixture()
def restore_thread_count():
    before = threads.num_threads()
    yield
    if before is not None:
        threads.set_num_threads(before)


class TestControl:
    def test_set_and_get_round_trip(self, restore_thread_count):
        if not threads.set_num_threads(2):
            pytest.skip("BLAS runtime not controllable on this numpy")
        assert threads.num_threads() == 2
        threads.set_num_threads(1)
        assert threads.num_threads() == 1

    def test_context_manager_restores_previous_count(self, restore_thread_count):
        if not threads.set_num_threads(1):
            pytest.skip("BLAS runtime not controllable on this numpy")
        with threads.blas_threads(3) as previous:
            assert previous == 1
            assert threads.num_threads() == 3
        assert threads.num_threads() == 1

    def test_invalid_count_is_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            threads.set_num_threads(0)
        with pytest.raises(ValueError, match="positive"):
            threads.set_num_threads(-4)

    def test_thread_info_shape(self):
        info = threads.thread_info()
        assert set(info) == {"controllable", "blas_threads", "env", "cpu_count"}
        assert isinstance(info["controllable"], bool)
        if info["controllable"]:
            assert isinstance(info["blas_threads"], int)
        else:
            assert info["blas_threads"] is None


class TestUncontrollableFallback:
    @pytest.fixture()
    def uncontrollable(self, monkeypatch):
        monkeypatch.setattr(threads, "_resolve", lambda: None)

    def test_everything_degrades_to_noops(self, uncontrollable):
        assert threads.set_num_threads(4) is False
        assert threads.num_threads() is None
        with threads.blas_threads(4) as previous:
            assert previous is None
        assert threads.thread_info()["controllable"] is False

    def test_env_application_ignores_invalid_values(self, monkeypatch):
        calls: list[int] = []
        monkeypatch.setattr(threads, "set_num_threads", lambda count: calls.append(count))
        monkeypatch.setenv(threads.ENV_VAR, "not-a-number")
        threads._apply_env()
        monkeypatch.setenv(threads.ENV_VAR, "-2")
        threads._apply_env()
        assert calls == []
        monkeypatch.setenv(threads.ENV_VAR, "3")
        threads._apply_env()
        assert calls == [3]


class TestThreadBudget:
    """The shared scale-out budget: shards × BLAS threads never oversubscribes."""

    def test_max_threads_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(threads.BUDGET_ENV_VAR, raising=False)
        import os

        assert threads.max_threads() == (os.cpu_count() or 1)

    def test_budget_env_overrides(self, monkeypatch):
        monkeypatch.setenv(threads.BUDGET_ENV_VAR, "12")
        assert threads.max_threads() == 12

    def test_invalid_budget_env_is_ignored(self, monkeypatch):
        for bad in ("zero", "-3", "0", ""):
            monkeypatch.setenv(threads.BUDGET_ENV_VAR, bad)
            import os

            assert threads.max_threads() == (os.cpu_count() or 1)

    def test_shard_blas_threads_splits_the_budget(self, monkeypatch):
        monkeypatch.setenv(threads.BUDGET_ENV_VAR, "8")
        assert threads.shard_blas_threads(2) == 4
        assert threads.shard_blas_threads(3) == 2
        assert threads.shard_blas_threads(16) == 1  # floor at one thread
        with pytest.raises(ValueError, match="shards"):
            threads.shard_blas_threads(0)

    def test_shards_times_blas_threads_stays_within_budget(self, monkeypatch):
        for budget in range(1, 17):
            monkeypatch.setenv(threads.BUDGET_ENV_VAR, str(budget))
            for shards in range(1, budget + 1):
                per_shard = threads.shard_blas_threads(shards)
                assert per_shard >= 1
                assert shards * per_shard <= budget, (budget, shards)
                # No idle share: one more thread per shard would overrun.
                assert shards * (per_shard + 1) > budget, (budget, shards)
