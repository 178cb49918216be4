"""Metamorphic testing of the whole stack with random mapping programs.

Two properties, checked over hypothesis-generated programs:

* **soundness of silence** — a program generated to respect the data
  mapping discipline (every kernel read sees a fresh device copy, every
  host read sees a fresh host copy, all unmaps of device-fresh data copy
  back) produces *zero* findings from ARBALEST and from all four baseline
  tools, and certifies under Theorem 1;
* **completeness on injected staleness** — taking a correct program whose
  final state leaves some array fresh only on the device and appending a
  host read *without* the required update produces a USD finding.

Every program ARBALEST runs here, the injected-staleness ones included, is
also run under the executable mapping reference
(:mod:`tests.mapping_reference`), once with batched delivery and once with
batches of one: the detector's mapping findings, fingerprints and per-site
counts, must equal the reference's under both.

The generator is a little state machine per array; illegal actions are
skipped rather than filtered, so every generated action list is a valid
program and shrinking stays effective.
"""

from __future__ import annotations

import enum

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Arbalest, certify
from repro.openmp import TargetRuntime, from_, release, to
from repro.tools import ArcherTool, AsanTool, MsanTool, ValgrindTool
from tests.mapping_reference import MappingReference, mapping_fingerprints
from tests.per_access import per_access

N_ELEMENTS = 16
N_ARRAYS = 3


class S(enum.Enum):
    HOST_ONLY = 0  # not mapped; host copy is the truth
    CONSISTENT = 1  # mapped; both copies fresh
    DEV_FRESH = 2  # mapped; device copy is the truth
    HOST_FRESH = 3  # mapped; host copy is the truth


class Action(enum.Enum):
    HOST_WRITE = 0
    HOST_READ = 1
    MAP = 2
    UNMAP = 3
    KERNEL_READ = 4
    KERNEL_WRITE = 5
    UPDATE_TO = 6
    UPDATE_FROM = 7


actions_strategy = st.lists(
    st.tuples(st.sampled_from(list(Action)), st.integers(0, N_ARRAYS - 1)),
    max_size=60,
)


class Interpreter:
    """Executes an action list as a *correct* program on a real runtime."""

    def __init__(self, rt: TargetRuntime):
        self.rt = rt
        self.arrays = []
        self.state: list[S] = []
        self.executed: list[tuple[Action, int]] = []
        for i in range(N_ARRAYS):
            arr = rt.array(f"v{i}", N_ELEMENTS)
            arr.fill(float(i + 1))
            self.arrays.append(arr)
            self.state.append(S.HOST_ONLY)

    def legal(self, action: Action, i: int) -> bool:
        s = self.state[i]
        if action is Action.HOST_WRITE:
            return True
        if action is Action.HOST_READ:
            return s is not S.DEV_FRESH
        if action is Action.MAP:
            return s is S.HOST_ONLY
        if action is Action.UNMAP:
            return s is not S.HOST_ONLY
        if action in (Action.KERNEL_READ, Action.KERNEL_WRITE):
            return s in (S.CONSISTENT, S.DEV_FRESH)
        if action is Action.UPDATE_TO:
            return s is S.HOST_FRESH
        if action is Action.UPDATE_FROM:
            return s is S.DEV_FRESH
        return False

    def apply(self, action: Action, i: int) -> None:
        if not self.legal(action, i):
            return
        rt, arr, s = self.rt, self.arrays[i], self.state[i]
        name = arr.name
        if action is Action.HOST_WRITE:
            arr.fill(42.0)
            self.state[i] = S.HOST_ONLY if s is S.HOST_ONLY else S.HOST_FRESH
        elif action is Action.HOST_READ:
            _ = arr[0]
            _ = arr[0:N_ELEMENTS]
        elif action is Action.MAP:
            rt.target_enter_data([to(arr)])
            self.state[i] = S.CONSISTENT
        elif action is Action.UNMAP:
            if s is S.DEV_FRESH:
                rt.target_exit_data([from_(arr)])
            else:
                rt.target_exit_data([release(arr)])
            self.state[i] = S.HOST_ONLY
        elif action is Action.KERNEL_READ:
            rt.target(lambda ctx, n=name: ctx[n].read(slice(0, N_ELEMENTS)))
        elif action is Action.KERNEL_WRITE:
            rt.target(lambda ctx, n=name: ctx[n].fill(7.0))
            self.state[i] = S.DEV_FRESH
        elif action is Action.UPDATE_TO:
            rt.target_update(to=[arr])
            self.state[i] = S.CONSISTENT
        elif action is Action.UPDATE_FROM:
            rt.target_update(from_=[arr])
            self.state[i] = S.CONSISTENT
        self.executed.append((action, i))

    def drain_correctly(self) -> None:
        """Unmap everything properly and read all results on the host."""
        for i, arr in enumerate(self.arrays):
            if self.state[i] is not S.HOST_ONLY:
                self.apply(Action.UNMAP, i)
            _ = arr[0]


def run_correct_program(actions, tool_classes=()):
    rt = TargetRuntime(n_devices=1)
    tools = [cls().attach(rt.machine) for cls in tool_classes]
    interp = Interpreter(rt)
    for action, i in actions:
        interp.apply(action, i)
    interp.drain_correctly()
    rt.finalize()
    return interp, tools


def run_against_reference(program, *, unified: bool = False) -> Arbalest:
    """Run ``program(rt)`` under ARBALEST beside the mapping reference, with
    batched delivery and with batches of one; both deliveries must report
    the reference's mapping findings.  Returns the batched detector."""
    detectors = []
    for cls in (Arbalest, per_access(Arbalest)):
        rt = TargetRuntime(n_devices=1, unified=unified)
        detector = cls().attach(rt.machine)
        reference = MappingReference().attach(rt.machine)
        program(rt)
        rt.finalize()
        assert mapping_fingerprints(detector) == mapping_fingerprints(reference)
        detectors.append(detector)
    return detectors[0]


def correct_program(actions):
    def program(rt):
        interp = Interpreter(rt)
        for action, i in actions:
            interp.apply(action, i)
        interp.drain_correctly()

    return program


@settings(max_examples=150, deadline=None)
@given(actions_strategy)
def test_correct_programs_are_silent_under_arbalest(actions):
    findings = run_against_reference(correct_program(actions)).findings
    assert not findings, [f.render() for f in findings]


@settings(max_examples=60, deadline=None)
@given(actions_strategy, st.integers(0, N_ARRAYS - 1))
def test_unified_memory_programs_match_reference(actions, victim):
    """The same programs on unified memory, where each CV is its OV: a
    host read after a kernel write reads the one storage, and a kernel
    reading past its mapped section reaches host memory.  The detector
    must report what the reference reports."""

    def program(rt):
        interp = Interpreter(rt)
        for action, i in actions:
            interp.apply(action, i)
        interp.apply(Action.KERNEL_WRITE, victim)
        _ = interp.arrays[victim][0]  # no update-from: one storage
        arr = interp.arrays[victim]
        rt.target(
            lambda ctx: ctx[arr.name].read(N_ELEMENTS - 1),
            maps=[to(arr, 0, N_ELEMENTS // 2)],
        )
        interp.drain_correctly()

    run_against_reference(program, unified=True)


@settings(max_examples=60, deadline=None)
@given(actions_strategy)
def test_correct_programs_are_silent_under_all_baselines(actions):
    _, tools = run_correct_program(
        actions, [ValgrindTool, ArcherTool, AsanTool, MsanTool]
    )
    for tool in tools:
        assert not tool.findings, (tool.name, [f.render() for f in tool.findings])


@settings(max_examples=40, deadline=None)
@given(actions_strategy)
def test_correct_programs_certify(actions):
    assert certify(correct_program(actions)).certified


@settings(max_examples=150, deadline=None)
@given(actions_strategy, st.integers(0, N_ARRAYS - 1))
def test_injected_stale_read_is_detected(actions, victim):
    """Force the victim array into device-fresh state, then read it on the
    host without the update — ARBALEST must report USD on exactly that."""

    def program(rt):
        interp = Interpreter(rt)
        for action, i in actions:
            interp.apply(action, i)
        # Steer the victim into DEV_FRESH deterministically.
        if interp.state[victim] is S.HOST_ONLY:
            interp.apply(Action.MAP, victim)
        if interp.state[victim] is S.HOST_FRESH:
            interp.apply(Action.UPDATE_TO, victim)
        interp.apply(Action.KERNEL_WRITE, victim)
        assert interp.state[victim] is S.DEV_FRESH
        # The injected bug: host read with no update-from.
        _ = interp.arrays[victim][0]

    stale = run_against_reference(program).mapping_issue_findings()
    assert stale, "the injected stale read went undetected"
    assert any(f.variable == f"v{victim}" for f in stale)


@settings(max_examples=100, deadline=None)
@given(actions_strategy, st.integers(0, N_ARRAYS - 1))
def test_injected_device_stale_read_is_detected(actions, victim):
    """Dual injection: host freshens, kernel reads without update-to."""

    def program(rt):
        interp = Interpreter(rt)
        for action, i in actions:
            interp.apply(action, i)
        if interp.state[victim] is S.HOST_ONLY:
            interp.apply(Action.MAP, victim)
        interp.arrays[victim].fill(13.0)  # host write: device copy now stale
        name = interp.arrays[victim].name
        rt.target(lambda ctx: ctx[name].read(slice(0, N_ELEMENTS)))

    assert run_against_reference(program).mapping_issue_findings()
