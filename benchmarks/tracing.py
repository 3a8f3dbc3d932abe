"""In-memory spans for the benchmark's traced runs.

A span records a name, start, end, parent span, the job (``run``) it
belongs to and the code it works on. Spans come from the benchmark's own
calls into the library and, during a traced phase, from library functions
that the library calls internally: ``Tracer.patched`` wraps those in the
namespace of the module that calls them and restores them afterwards. A
call site the library no longer has is skipped and listed in
``Tracer.skipped``, so a traced run keeps working as the library changes.
Nothing on a per-trial path (``syndrome_bits``, ``ec_decision``,
``Simulator._unit``) is wrapped, so a traced call costs microseconds.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run: str  # job id, "setup-<i>" or "pass-<i>"
    code: str | None
    attrs: dict

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.run = ""
        self.skipped: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, code: str | None = None, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        if code is None and parent is not None:
            code = self.spans[parent].code
        sp = Span(name, time.perf_counter(), float("nan"), parent, self.run, code, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, call_sites):
        """Wrap each ``(owner, attribute, span name[, attrs_of])`` for the
        duration of the block; ``attrs_of(*args)`` adds span attributes.
        Attributes the owner does not have are skipped."""
        saved = []
        try:
            for owner, attr, name, *attrs_of in call_sites:
                if not hasattr(owner, attr):
                    self.skipped.append(f"{owner.__name__}.{attr}")
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, *attrs_of))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.duration
    return [sp.duration - c for sp, c in zip(spans, covered)]


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
