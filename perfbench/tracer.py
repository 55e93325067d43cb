"""Timing wrappers for the traced benchmark run.

Each wrapped callable gets a call count, accumulated total time and
accumulated self time (total time minus the time spent in wrapped callees).
Coarse callables (a solve, a verification, a game, an ``analyze``) also get a
span ``(id, parent_id, name, start, end)``; spans stay in memory until the
harness writes them out at exit.

Wrappers are installed from outside the package: a function is replaced in
every ``gamelab`` module namespace that holds it, so callers that imported
the name directly (``from .goodset import find_good_set``) see the wrapper,
and a method is replaced on the class that defines it.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "nodes")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.nodes = 0


class Tracer:
    """Call counts, self times and spans for a set of wrapped callables.

    ``clock`` is injectable so that tests can drive the arithmetic with a
    fake clock.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self._child: list[float] = []  # callee time of each active wrapped call
        self._open: list[int] = []  # ids of the open spans, innermost last

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def reset(self) -> None:
        """Zero every statistic in place (wrappers keep their references)."""
        for st in self.stats.values():
            st.__init__()
        self.spans.clear()

    def wrap(self, name: str, fn, *, span: bool = False, nodes: bool = False):
        """Return ``fn`` wrapped so its calls accumulate into ``stats[name]``.

        ``span`` records a span per call; ``nodes`` adds the ``nodes`` field
        of the result (a solve or verification result) to the statistic.
        """
        st = self.stat(name)
        child = self._child
        clock = self.clock

        if not span:

            @functools.wraps(fn)
            def hot(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    st.calls += 1
                    st.total_s += dt
                    st.self_s += dt - child.pop()
                    if child:
                        child[-1] += dt

            return hot

        spans = self.spans
        open_ = self._open

        @functools.wraps(fn)
        def coarse(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else None
            open_.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if nodes:
                    st.nodes += result.nodes
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - child.pop()
                if child:
                    child[-1] += dt
                open_.pop()
                spans[sid] = (sid, parent, name, t0, t1)

        return coarse

    @contextmanager
    def span(self, name: str):
        """A harness-level span (no statistic) that parents the calls inside."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        t0 = self.clock()
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid] = (sid, parent, name, t0, self.clock())


def replace_everywhere(original, replacement) -> None:
    """Rebind every module-level name in ``gamelab`` that holds ``original``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gamelab" or modname.startswith("gamelab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def wrap_methods(tracer: Tracer, name: str, module, method: str) -> int:
    """Wrap ``method`` on every class defined in ``module`` that defines it.

    All those classes share one statistic, so ``maker.move`` covers every
    Maker policy.  Returns the number of classes wrapped.
    """
    wrapped = 0
    for cls in list(vars(module).values()):
        if not (isinstance(cls, type) and cls.__module__ == module.__name__):
            continue
        raw = cls.__dict__.get(method)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, method, tracer.wrap(name, raw))
        wrapped += 1
    return wrapped
