"""Thread-aware span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :func:`install` replaces
public functions and methods of ``repro`` with thin wrappers that push a span
on the calling thread's stack, so the ``AsyncTrainer`` and checkpoint-offload
threads attribute their work to their own stacks.  Every span keeps its name,
start and end (``perf_counter_ns``), parent index, thread and the arrival id
current when it started; spans stay in memory until :meth:`Recorder.ledger`
folds them into per-layer totals at the end of the run.

A layer's self time is its span's duration minus the durations of its direct
children.  Children always nest inside their parent on the same thread, so
the subtraction never double counts.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager

#: (owner path, attribute, span name) of every wrapped public entry point.
#: Owners are ``module`` or ``module:Class``; a module function is replaced in
#: every loaded ``repro`` module that bound the same object by name.
WRAPPED = (
    ("repro.datasets.crowdspring", "generate_crowdspring", "datasets.generate"),
    ("repro.api.registry", "build_policy", "api.build_policy"),
    ("repro.serve.tenant:Tenant", "boot", "serve.tenant.boot"),
    ("repro.core.framework:TaskArrangementFramework", "rank_tasks", "core.framework.rank_tasks"),
    ("repro.core.framework:TaskArrangementFramework", "observe_feedback", "core.framework.observe_feedback"),
    ("repro.core.framework:TaskArrangementFramework", "build_training_plan", "core.framework.build_training_plan"),
    ("repro.core.framework:TaskArrangementFramework", "flush_training", "core.framework.flush_training"),
    ("repro.core.state:StateTransformer", "transform", "core.state.transform"),
    ("repro.core.qnetwork:SetQNetwork", "q_values", "core.qnetwork.q_values"),
    ("repro.core.qnetwork:SetQNetwork", "q_values_batch", "core.qnetwork.q_values"),
    ("repro.core.qnetwork:SetQNetwork", "forward_batch", "core.qnetwork.forward_batch"),
    ("repro.core.learner:DoubleDQNLearner", "train_step", "core.learner.train_step"),
    ("repro.core.learner:DoubleDQNLearner", "td_targets_batch", "core.learner.td_targets_batch"),
    ("repro.nn.tensor:Tensor", "backward", "nn.tensor.backward"),
    ("repro.nn.optim:Optimizer", "step", "nn.optim.step"),
    ("repro.nn.optim:Optimizer", "clip_grad_norm_", "nn.optim.clip_grad_norm_"),
    ("repro.core.replay:PrioritizedReplayMemory", "push", "core.replay.push"),
    ("repro.core.replay:PrioritizedReplayMemory", "sample", "core.replay.sample"),
    ("repro.core.replay:PrioritizedReplayMemory", "update_priorities", "core.replay.update_priorities"),
    ("repro.core.predictor:FutureStatePredictorW", "predict", "core.predictor.predict"),
    ("repro.core.predictor:FutureStatePredictorR", "predict", "core.predictor.predict"),
    ("repro.core.trainer:AsyncTrainer", "before_decision", "core.trainer.before_decision"),
    ("repro.core.trainer:AsyncTrainer", "q_values", "core.trainer.q_values"),
    ("repro.core.trainer:AsyncTrainer", "submit", "core.trainer.submit"),
    ("repro.crowd.platform:CrowdsourcingPlatform", "submit_list", "crowd.platform"),
    ("repro.crowd.vectorized:ReplicaStream", "next_arrival", "crowd.platform"),
    ("repro.serve.tenant:PushStream", "next_arrival", "crowd.platform"),
    ("repro.serve.batching", "decide_batch", "serve.batching.decide_batch"),
    ("repro.serve.offload:CheckpointOffloader", "write_many", "serve.offload.write_many"),
    ("repro.nn.serialization", "save_checkpoint", "nn.serialization.save_checkpoint"),
)


class Recorder:
    """Spans in memory, one stack per thread, folded into a ledger at the end."""

    def __init__(self) -> None:
        #: span id → (name, start_ns, end_ns, parent id, arrival id, thread).
        self.spans: dict[int, tuple] = {}
        self._ids = itertools.count()
        self.arrival = 0
        self.rows_real = 0
        self.rows_padded = 0
        self._rows_lock = threading.Lock()
        self._local = threading.local()
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        stack = self._stack()
        # next() on itertools.count is atomic, so threads never share an id.
        index = next(self._ids)
        stack.append((index, name, stack[-1][0] if stack else -1, self.arrival, time.perf_counter_ns()))

    def end(self) -> None:
        finished = time.perf_counter_ns()
        index, name, parent, arrival, started = self._stack().pop()
        self.spans[index] = (name, started, finished, parent, arrival, threading.get_ident())

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def _wrapper(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            recorder.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end()

        return traced

    def install(self) -> None:
        """Wrap every entry point of :data:`WRAPPED` (undone by :meth:`uninstall`)."""
        import importlib

        for owner_path, attribute, name in WRAPPED:
            module_name, _, class_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                traced = self._wrapper(original, name)
                if attribute == "forward_batch":
                    traced = self._count_rows(traced)
                setattr(owner, attribute, traced)
                self._restore.append((owner, attribute, original))
                continue
            original = getattr(module, attribute)
            traced = self._wrapper(original, name)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    getattr(loaded, attribute, None) is original
                ):
                    setattr(loaded, attribute, traced)
                    self._restore.append((loaded, attribute, original))

    def _count_rows(self, traced):
        """Add the real ÷ padded row counters of the states a forward receives."""
        recorder = self

        @functools.wraps(traced)
        def counted(network, states):
            rows = [state.num_tasks for state in states]
            widths = [state.matrix.shape[0] for state in states]
            # The decision and AsyncTrainer threads both run forwards.
            with recorder._rows_lock:
                recorder.rows_real += sum(rows)
                recorder.rows_padded += len(states) * max(widths + rows + [0])
            return traced(network, states)

        return counted

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def ledger(self, wall_s: float, main_thread: int | None = None) -> dict:
        """Per-name ``calls`` / ``self_s`` plus coverage of ``wall_s``.

        Coverage is Σ self time of the spans on ``main_thread`` (the thread
        whose wall clock the workload measures) divided by ``wall_s``.
        """
        child_ns: dict[int, int] = {}
        for name, started, finished, parent, _, _ in self.spans.values():
            child_ns[parent] = child_ns.get(parent, 0) + finished - started
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        covered_ns = 0
        for index, (name, started, finished, _, _, thread) in self.spans.items():
            own = finished - started - child_ns.get(index, 0)
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
            if main_thread is None or thread == main_thread:
                covered_ns += own
        return {
            "calls": calls,
            "self_s": {name: value / 1e9 for name, value in self_ns.items()},
            "coverage": covered_ns / 1e9 / wall_s if wall_s > 0 else 0.0,
            "covered_s": covered_ns / 1e9,
            "wall_s": wall_s,
            "rows": [self.rows_real, self.rows_padded],
            "spans": len(self.spans),
            "arrivals": len({span[4] for span in self.spans.values()}),
        }
