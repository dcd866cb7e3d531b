"""In-memory span recorder that times the simulator's layers from outside.

A ``from .x import f`` gives every importing module its own name for ``f``,
so each layer is wrapped at the module attribute its caller looks up, never
at the defining module. The simulator's source is not touched.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span or -1. Self time is a span's duration minus the durations of
its direct children, so the self times of all spans add up to the time
covered by the root spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class SpanDef:
    """One traced layer: its name, the bindings it wraps, and what it should move.

    ``moves`` is the end-to-end metric a speed-up of this layer should move;
    ``mostly_on`` names the workloads where the span carries its weight and
    ``not_on`` those where it should not move anything (mostly: not called).
    """

    name: str
    bindings: tuple[tuple[str, str], ...]
    moves: str
    mostly_on: str
    not_on: str = ""
    hot: bool = False


SPANS = (
    SpanDef("quantum.bell_measure.bob", (("protocol", "bell_measure"),),
            "pairs_per_s", "all", hot=True),
    SpanDef("quantum.bell_measure.eve", (("adversary", "bell_measure"),),
            "pairs_per_s", "keyed-intercept", "bootstrap-sweep", hot=True),
    SpanDef("protocol.prepare", (("protocol", "alice_prepare_block"),),
            "pairs_per_s", "all", hot=True),
    SpanDef("quantum.tensor", (("protocol", "tensor"),),
            "pairs_per_s", "all", hot=True),
    SpanDef("adversary.intercept", (("adversary", "intercept"),),
            "session_p50_ms", "keyed-intercept", "bootstrap-sweep"),
    SpanDef("adversary.probe", (("adversary", "eve_bell_probe"),),
            "pairs_per_s", "paper-table", "keyed-intercept bootstrap-sweep", hot=True),
    SpanDef("channel.transmit", (("protocol", "transmit"),),
            "session_p50_ms", "all"),
    SpanDef("channel.noise", (("channel", "depolarize"),),
            "pairs_per_s", "bootstrap-sweep", "paper-table keyed-intercept", hot=True),
    SpanDef("quantum.apply_single_qubit", (("channel", "apply_single_qubit"),),
            "pairs_per_s", "bootstrap-sweep", "paper-table keyed-intercept", hot=True),
    SpanDef("rearrange.permute",
            (("protocol", "apply_core"), ("protocol", "invert_core"),
             ("adversary", "apply_core"), ("adversary", "invert_core")),
            "session_p50_ms", "all"),
    SpanDef("protocol.session",
            (("harness", "run_keyed_session"), ("harness", "run_bootstrap_session")),
            "session_p50_ms", "bootstrap-sweep"),
    SpanDef("protocol.check", (("protocol", "_check_records"),),
            "session_tail_ms", "keyed-intercept"),
    SpanDef("harness.run_trial", (("harness", "run_trial"),),
            "session_p50_ms", "bootstrap-sweep", "keyed-intercept"),
    SpanDef("harness.trial_stats", (("harness", "_trial_stats"),),
            "session_tail_ms", "keyed-intercept"),
    SpanDef("harness.parse_spec", (("harness", "parse_experiment_string"),),
            "setup_s", "bootstrap-sweep", "paper-table keyed-intercept"),
    SpanDef("harness.emit", (("harness", "emit_report"), ("cli", "emit_report")),
            "session_tail_ms", "bootstrap-sweep", "keyed-intercept"),
    SpanDef("harness.parse_report", (("harness", "parse_report"),),
            "session_tail_ms", "bootstrap-sweep", "paper-table keyed-intercept"),
)


# -- counts taken at span boundaries ----------------------------------------

def _count_check(counts: Counter, args, kwargs, result) -> None:
    counts["protocol.check.pairs"] += result[0].checked_count


def _count_session(counts: Counter, args, kwargs, result) -> None:
    transcript = result[1] if isinstance(result, tuple) else result
    pairs = len(transcript.records)
    sifted = sum(1 for b in transcript.blocks if b.sifted) * (pairs // len(transcript.blocks))
    counts["protocol.measured_pairs"] += pairs
    counts["protocol.sifted_pairs"] += sifted
    if transcript.accepted:
        counts["protocol.key_bits"] += 2 * (sifted - transcript.verdict.checked_count)


def _count_noise(counts: Counter, args, kwargs, result) -> None:
    qubits, probability = args[1], args[2]
    if probability > 0.0:
        counts["channel.noise.qubits"] += len(qubits)


def _count_emit(counts: Counter, args, kwargs, result) -> None:
    counts["harness.emit.bytes"] += len(result.encode())


HOOKS: dict[str, Callable] = {
    "protocol.check": _count_check,
    "protocol.session": _count_session,
    "channel.noise": _count_noise,
    "harness.emit": _count_emit,
}


_NO_CALLS = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}


class Recorder:
    """Collects spans, escaping exceptions and boundary counts in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds and errors."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            agg = out.setdefault(name, dict(_NO_CALLS))
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        for name, n in self.errors.items():
            out.setdefault(name, dict(_NO_CALLS))["errors"] = n
        return out

    def root_seconds(self) -> float:
        """Time covered by spans that have no enclosing span."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def nesting_faults(self) -> int:
        """Spans that do not lie inside their parent's interval."""
        spans = self.spans
        return sum(
            1 for _, start, end, parent in spans
            if parent >= 0 and not (spans[parent][1] <= start <= end <= spans[parent][2])
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every binding in ``SPANS``; returns a function that restores them."""
    undo = []
    for span in SPANS:
        for module_name, attr in span.bindings:
            module = importlib.import_module(f"coreqkd.{module_name}")
            original = getattr(module, attr)
            undo.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span.name, original, HOOKS.get(span.name)))

    def restore() -> None:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    return restore


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-span calls, self seconds, errors and, for hot spans, calls per second."""
    summary = recorder.summary()
    out: dict[str, float] = {}
    for span in SPANS:
        agg = summary.get(span.name, _NO_CALLS)
        out[f"{span.name}.calls"] = agg["calls"]
        out[f"{span.name}.self_s"] = agg["self_s"]
        out[f"{span.name}.errors"] = agg["errors"]
        if span.hot:
            out[f"{span.name}.per_s"] = agg["calls"] / agg["total_s"] if agg["calls"] else 0.0
    counts = recorder.counts
    measured = counts["protocol.measured_pairs"]
    noisy = counts["channel.noise.qubits"]
    out["protocol.check.pairs"] = counts["protocol.check.pairs"]
    out["protocol.sift_ratio"] = counts["protocol.sifted_pairs"] / measured if measured else 0.0
    out["protocol.key_bits_per_pair"] = counts["protocol.key_bits"] / measured if measured else 0.0
    paulis = summary.get("quantum.apply_single_qubit", _NO_CALLS)["calls"]
    out["channel.noise.pauli_ratio"] = paulis / noisy if noisy else 0.0
    out["harness.emit.bytes"] = counts["harness.emit.bytes"]
    return out
