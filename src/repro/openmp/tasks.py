"""Deterministic logical task graph for target regions.

Real OpenMP offloading runs kernels on device threads; nondeterminism comes
from the OS scheduler.  This simulation replaces OS threads with *logical*
threads executed serially: every target region (and every worker of a
``parallel for`` inside one) gets a fresh logical thread id, and all
ordering guarantees are expressed as explicit happens-before edges published
on the bus as :class:`~repro.events.records.SyncEvent`:

* ``fork``   — parent spawned the task: everything the parent did so far
  happens-before the task body;
* ``join``   — the parent (or a taskwait) synchronized with the completed
  task: the task body happens-before everything after the join;
* ``depend`` — a ``depend`` clause ordered two sibling tasks.

The crucial property: *when* a nowait task's body physically executes (at
launch, or deferred to the next synchronization point) is a scheduling
choice that changes observed values, but the published HB edges depend only
on the program — so the race-detection tools see the same race set under
every schedule, exactly as vector-clock detectors do on real traces.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Iterable

from ..events.records import SyncEvent
from ..memory.errors import TaskGraphError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import Machine


class TaskState(enum.Enum):
    """Lifecycle of a task: pending -> done (body ran) -> joined."""

    PENDING = "pending"
    DONE = "done"
    JOINED = "joined"


class Task:
    """One deferred unit of work (a target region, with its data motion)."""

    __slots__ = (
        "task_id",
        "name",
        "device_id",
        "nowait",
        "body",
        "depend_in",
        "depend_out",
        "state",
        "parent_thread",
        "predecessors",
    )

    def __init__(
        self,
        task_id: int,
        name: str,
        device_id: int,
        nowait: bool,
        body: Callable[[], None],
        depend_in: tuple[int, ...],
        depend_out: tuple[int, ...],
        parent_thread: int,
    ):
        self.task_id = task_id
        self.name = name
        self.device_id = device_id
        self.nowait = nowait
        self.body = body
        self.depend_in = depend_in
        self.depend_out = depend_out
        self.state = TaskState.PENDING
        self.parent_thread = parent_thread
        #: Task ids this task's depend clauses order it after.
        self.predecessors: tuple[int, ...] = ()

    def __repr__(self) -> str:
        return f"Task(#{self.task_id} {self.name!r} {self.state.value})"


class TaskGraph:
    """Creates tasks, tracks depend chains, runs and joins them."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self._next_tid = 1  # 0 is the initial host thread
        self._pending: list[Task] = []
        self._unjoined: list[Task] = []
        # depend bookkeeping: per dependence token (we use the host array's
        # base address), the last out-task and the in-tasks since it.
        self._last_out: dict[int, int] = {}
        self._readers_since: dict[int, list[int]] = {}
        self.completed_count = 0

    def fresh_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    @property
    def pending(self) -> tuple[Task, ...]:
        return tuple(self._pending)

    # -- creation -----------------------------------------------------------

    def create(
        self,
        name: str,
        device_id: int,
        body: Callable[[], None],
        *,
        nowait: bool,
        depend_in: Iterable[int] = (),
        depend_out: Iterable[int] = (),
    ) -> Task:
        """Create a task and publish its fork/depend happens-before edges."""
        bus = self.machine.bus
        parent = self.machine.current_thread
        task = Task(
            self.fresh_tid(),
            name,
            device_id,
            nowait,
            body,
            tuple(depend_in),
            tuple(depend_out),
            parent,
        )
        bus.publish_sync(SyncEvent("fork", parent, task.task_id, parent))
        # Resolve depend clauses against prior siblings.  The happens-before
        # edges themselves are published when the task *starts executing*
        # (the predecessor has completed by then in every legal schedule),
        # so race detectors see the predecessor's final clock.
        preds: list[int] = []
        for token in task.depend_in:
            # in depends on the last out.
            pred = self._last_out.get(token)
            if pred is not None:
                preds.append(pred)
            self._readers_since.setdefault(token, []).append(task.task_id)
        for token in task.depend_out:
            # out depends on the last out and every in since it.
            pred = self._last_out.get(token)
            if pred is not None:
                preds.append(pred)
            for reader in self._readers_since.pop(token, ()):
                if reader != task.task_id:
                    preds.append(reader)
            self._last_out[token] = task.task_id
        task.predecessors = tuple(dict.fromkeys(preds))
        self._pending.append(task)
        return task

    # -- execution ----------------------------------------------------------

    def execute(self, task: Task) -> None:
        """Run the task body on its logical thread.  Idempotent-guarded."""
        if task.state is not TaskState.PENDING:
            raise TaskGraphError(f"{task!r} executed twice")
        # A schedule may try to run a task whose depend-predecessors were
        # deferred; the dependence is a hard ordering, so run them first.
        for pred in task.predecessors:
            pred_task = next(
                (t for t in self._pending if t.task_id == pred), None
            )
            if pred_task is not None:
                self.execute(pred_task)
        self._pending.remove(task)
        machine = self.machine
        for pred in task.predecessors:
            machine.bus.publish_sync(
                SyncEvent("depend", pred, task.task_id, machine.current_thread)
            )
        caller = machine.current_thread
        machine.current_thread = task.task_id
        machine.bus.invalidate_lanes()  # a lane slot names its thread
        try:
            task.body()
        finally:
            machine.current_thread = caller
            machine.bus.invalidate_lanes()
        task.state = TaskState.DONE
        self.completed_count += 1
        self._unjoined.append(task)

    def run_pending(self) -> int:
        """Execute every pending task, in creation (dependence-safe) order."""
        n = 0
        while self._pending:
            self.execute(self._pending[0])
            n += 1
        return n

    # -- synchronization ------------------------------------------------------

    def join(self, task: Task) -> None:
        """Publish the join edge: task body happens-before the current thread."""
        if task.state is TaskState.PENDING:
            raise TaskGraphError(f"cannot join {task!r} before it ran")
        if task.state is TaskState.DONE:
            self._unjoined.remove(task)
            task.state = TaskState.JOINED
            self.machine.bus.publish_sync(
                SyncEvent("join", task.task_id, self.machine.current_thread)
            )

    def taskwait(self) -> int:
        """``#pragma omp taskwait``: run anything pending, join everything.

        Returns the number of tasks that were still pending when called.
        """
        n = self.run_pending()
        for task in list(self._unjoined):
            self.join(task)
        return n

    @property
    def quiescent(self) -> bool:
        return not self._pending and not self._unjoined
