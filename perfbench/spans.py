"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions each layer exports, at the module
attribute where the caller looks them up, and restores every attribute
on :meth:`Tracer.uninstall`.  Nothing in the program is edited: a span
is recorded around each call the program makes into a wrapped name.

A span is ``[name, start, end, parent]`` (``parent`` is the index of the
enclosing span on the same thread, or ``None``).  Counts are recorded at
the same boundaries.  Spans stay in memory until :func:`summary` and
:meth:`Tracer.dump` run at the end of the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import threading
import time
from collections import defaultdict

#: Span-name prefixes that belong to the benchmark, not to a layer.
BENCH = "bench"


def _count_instrs(module) -> int:
    return sum(len(list(function.instructions()))
               for function in module.functions.values())


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._patches = []
        self._optimised = set()

    # -- spans ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           stack[-1] if stack else None])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, hook=None,
             count: str = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``hook(call, opened, args, kwargs)`` runs around the timed call,
        for counters that must look at arguments or results: ``call()``
        runs the original inside the span and appends the span's index
        to ``opened``.  ``count`` names a counter bumped per call.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            if count is not None:
                tracer.counts[count] += 1
            opened = []

            def call():
                index = tracer.open(name)
                opened.append(index)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(index)

            if hook is None:
                return call()
            return hook(call, opened, args, kwargs)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer entry point the benchmark reports on."""
        from repro.backend.isel import EpicISel
        from repro.core import EpicProcessor
        from repro.reliability import LockstepChecker

        for attr, name in (("parse_program", "lang.parse"),
                           ("check_program", "lang.sema"),
                           ("unroll_program", "lang.unroll"),
                           ("lower_program", "lang.lower"),
                           ("verify_module", "ir.verify")):
            self.wrap("repro.lang.compile", attr, name)
        self.wrap("repro.lang.compile", "optimize_module", "ir.optimize",
                  hook=self._optimize_hook)
        pipeline = "repro.ir.passes.pipeline"
        self.wrap(pipeline, "fold_constants", "ir.constfold",
                  count="ir.fixpoint_rounds")
        for attr, name in (("fold_const_loads", "ir.constloads"),
                           ("propagate_copies", "ir.copyprop"),
                           ("eliminate_common_subexpressions", "ir.cse"),
                           ("eliminate_dead_code", "ir.dce"),
                           ("simplify_cfg", "ir.simplifycfg"),
                           ("verify_function", "ir.verify"),
                           ("verify_module", "ir.verify")):
            self.wrap(pipeline, attr, name)

        epic = "repro.backend.epic"
        for owner in (epic, "repro.reliability.lockstep"):
            self.wrap(owner, "compile_ir_to_epic", "backend.compile",
                      hook=self._compile_hook)
        self.wrap(EpicISel, "__init__", "backend.isel")
        self.wrap(EpicISel, "run", "backend.isel")
        for attr, name in (("verify_module", "ir.verify"),
                           ("allocate_registers", "sched.regalloc"),
                           ("expand_function", "backend.expand"),
                           ("schedule_function", "sched.schedule"),
                           ("render_program", "backend.emit"),
                           ("assemble", "asm.assemble")):
            self.wrap(epic, attr, name)

        self.wrap("repro.autotune.evaluate", "estimate_costs",
                  "fpga.estimate")
        self.wrap("repro.core.fastpath", "specialise", "core.specialise")
        self.wrap(EpicProcessor, "run", "core.run", hook=self._run_hook)

        self.wrap(LockstepChecker, "__init__", "reliability.checker_build")
        self.wrap(LockstepChecker, "prepare_checkpoints",
                  "reliability.prepare_checkpoints")
        self.wrap(LockstepChecker, "run_batch", "reliability.run_batch")
        self.wrap(LockstepChecker, "run_one", "reliability.run_one",
                  count="reliability.run_one_calls")
        self.wrap("repro.reliability.lockstep", "capture_checkpoints",
                  "snapshot.checkpoints")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counting hooks ------------------------------------------------

    def _optimize_hook(self, call, opened, args, kwargs):
        module = args[0]
        key = hashlib.sha256(
            (str(module) + repr(sorted(kwargs.items()))).encode()
        ).hexdigest()
        self.counts["ir.optimize_calls"] += 1
        if key in self._optimised:
            self.counts["ir.optimize_redundant"] += 1
        self._optimised.add(key)
        self.counts["ir.instrs_before"] += _count_instrs(module)
        rewrites = call()
        self.counts["ir.rewrites"] += rewrites
        self.counts["ir.instrs_after"] += _count_instrs(module)
        return rewrites

    def _compile_hook(self, call, opened, args, kwargs):
        compilation = call()
        self.counts["backend.code_bundles"] += compilation.code_bundles
        return compilation

    def _run_hook(self, call, opened, args, kwargs):
        machine = args[0]
        try:
            result = call()
        finally:
            # Named after the engine that ran, also when the run raised
            # (a hung fault ends in HangDetected).
            engine = machine.last_engine or "unknown"
            engine = "reference" if engine == "instrumented" else engine
            self.spans[opened[0]][0] = f"core.{engine}"
            self.counts[f"core.{engine}_runs"] += 1
        self.counts["core.sim_cycles"] += result.cycles
        return result

    # -- output --------------------------------------------------------

    def dump(self, path: str, extra: dict) -> None:
        payload = dict(extra)
        payload["spans"] = [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans]
        with open(path, "w") as handle:
            json.dump(payload, handle)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summary(spans):
    """Per-span-name totals and per-layer self time.

    A span's self time is its duration minus the time its child spans
    cover; benchmark spans are not a layer and are left out.
    """
    totals = defaultdict(float)
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        layer = layer_of(name)
        if layer != BENCH:
            totals[name] += end - start
            self_time[layer] += end - start - child_time[index]
    return totals, self_time
