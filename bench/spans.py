"""In-memory span tracing from outside the program, plus an in-process deadline.

``Tracer.install`` replaces a function in every module that holds a
reference to it, so a call lands in the same span whichever import path it
took (``matchbench.cli.simulate_market`` and ``matchbench.market.simulate_market``
are one object, wrapped once). Spans stay in memory; ``summarize`` turns
one operation's spans into per-name totals with self time.

A span opened on a thread that has no open span is attributed to the
operation's root span (the first span of the operation). That is how pool
workers' spans become children of the command that submitted them.
"""

from __future__ import annotations

import functools
import signal
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "extra")

    def __init__(self, name, start, parent, tid):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.tid = tid
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped functions; ``reset`` starts a new operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.root: Span | None = None
        self._stacks: dict[int, list[Span]] = {}

    def wrap(self, fn, name: str, measure=None):
        """Return ``fn`` recording one span per call.

        ``measure(args, kwargs, result)`` returns a dict of counts stored on
        the span; it runs after the span has ended.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            span = Span(name, self.clock(), stack[-1] if stack else self.root, tid)
            if self.root is None:
                self.root = span
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
            if measure is not None:
                span.extra = measure(args, kwargs, result)
            return result

        return traced

    def install(self, package: str, targets) -> None:
        """Wrap each ``(module, qualname, measure)`` target wherever
        ``package`` or one of its submodules refers to it.

        A qualname ``Class.method`` patches the class attribute, keeping a
        staticmethod static. The span name is the last part of the qualname.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for module_name, qualname, measure in targets:
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:
                raw = owner.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self.wrap(fn, attr, measure)
                self._patch(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, attr, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class Totals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


@dataclass
class OpSummary:
    """Span totals of one operation.

    ``root_self_s`` is the part of the root span no child covers;
    ``worker_busy_s`` sums spans that ran on other threads than the root,
    over ``workers`` distinct threads; ``queue_wait_s`` sums, per worker
    span named ``first_task_span``, its start minus the root's start.
    """

    totals: dict[str, Totals]
    root_name: str | None
    root_duration_s: float
    root_self_s: float
    worker_busy_s: float
    workers: int
    queue_wait_s: float


def summarize(spans: list[Span], op_end: float, first_task_span: str | None = None) -> OpSummary:
    """Per-name totals of one operation's spans.

    Self time is a span's duration minus the part of it that its children
    cover, so children on other threads that overlap count once. Busy time
    counts only the outermost span of a name, so recursion is not counted
    twice. A span left open (its call was interrupted mid-bookkeeping) ends
    at ``op_end``.
    """
    children: dict[Span, list[Span]] = defaultdict(list)
    root = None
    for s in spans:
        if s.end is None:
            s.end = op_end
        if s.parent is None:
            root = root or s
        else:
            children[s.parent].append(s)

    totals: dict[str, Totals] = {}
    self_of: dict[Span, float] = {}
    for s in spans:
        kids = children.get(s, ())
        covered = union_length((max(k.start, s.start), min(k.end, s.end)) for k in kids)
        self_of[s] = s.duration - covered
        t = totals.setdefault(s.name, Totals())
        t.calls += 1
        t.self_s += self_of[s]
        ancestor = s.parent
        while ancestor is not None and ancestor.name != s.name:
            ancestor = ancestor.parent
        if ancestor is None:
            t.busy_s += s.duration
        for key, value in (s.extra or {}).items():
            t.counts[key] += value

    worker_busy = queue_wait = 0.0
    worker_tids = set()
    if root is not None:
        for k in children.get(root, ()):
            if k.tid != root.tid:
                worker_busy += k.duration
                worker_tids.add(k.tid)
                if k.name == first_task_span:
                    queue_wait += k.start - root.start
    return OpSummary(
        totals=totals,
        root_name=root.name if root else None,
        root_duration_s=root.duration if root else 0.0,
        root_self_s=self_of[root] if root else 0.0,
        worker_busy_s=worker_busy,
        workers=len(worker_tids),
        queue_wait_s=queue_wait,
    )


class DeadlineExceeded(BaseException):
    """Raised in the main thread when a ``deadline`` expires.

    It derives from BaseException so that no ``except Exception`` inside
    the program under test can swallow it.
    """


@contextmanager
def deadline(seconds: float):
    """Interrupt the body after ``seconds`` of wall time (main thread only).

    Uses ``signal.setitimer``, so no extra thread or process is started.
    """

    def expire(signum, frame):
        raise DeadlineExceeded(seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
