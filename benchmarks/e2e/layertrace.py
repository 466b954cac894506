"""Per-layer tracing for the end-to-end benchmark: two instruments.

Both live entirely in ``benchmarks/e2e/`` and edit nothing under
``src/``; both attribute work to the benchmark's layers (the repo's
packages, ``benchdefs.LAYERS``) by the module that defined the code.

:class:`CallTracer` — *work done*.  ``install()`` wraps, by attribute
assignment, every public callable (name not starting with ``_``, plus
``__init__``/``__call__``) defined in a module of a layer, and makes
every callback handed to the public ``Simulator.schedule_at`` a span
owned by the layer of the module that defined it, so an event's work
belongs to ``core``/``traffic``/``fluid``/… and only its dispatch to
``sim.kernel``.  It counts calls per ``(layer, qualified name)``
exactly, and keeps full span records — layer, name, start, end, parent,
iteration — for the first ``EVENT_LIMIT`` kernel events (or
``SPAN_LIMIT`` spans where there is no kernel), which
:meth:`CallTracer.chrome_trace` renders for a standard trace viewer.
``uninstall()`` puts every original object back.

:class:`StackSampler` — *time busy*.  A wall-clock interval timer
interrupts the timed region about a thousand times a second; each
interrupt charges the time since the previous one to the innermost
frame on the stack whose module belongs to a layer.  Code outside the
layers (C builtins, the standard library, ``repro.sim.clock``, …) is
therefore charged to the layer code that called it, and time under no
layer frame at all (the benchmark's own drive loop) is *unattributed*.

Why time does not come from the spans: a 1-second iteration is 4-7
million spans of a few hundred nanoseconds each, and a Python wrapper
costs more than the call it wraps.  Timed that way the region runs 3-5x
slower and layers made of many small calls (``sim.stats``,
``serve.session``) take twice their true share from the ones doing real
work per call (``accel``, ``packet``); ``cProfile`` slows this code 4.5x
and has the same bias.  Sampling costs about 5%.  Its error is
statistical, about one point of share per thousand samples, plus one
known skew: CPython runs a signal handler at the next safe point
(function entry, loop back-edge, return from a C call), so the
straight-line code just before a call is charged to the callee.  Inside
a layer that cancels; across layers it moves a few points from callers
to the small functions they call (``Simulator.now``, ``CounterSet.add``).
"""

from __future__ import annotations

import functools
import signal
import sys
import types
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchdefs import LAYERS

_WRAPPED_DUNDERS = ("__init__", "__call__")


def layer_of(module_name: str) -> Optional[str]:
    """The benchmark layer a ``repro`` module belongs to (longest match)."""
    best = None
    for layer in LAYERS:
        prefix = "repro." + layer
        if module_name == prefix or module_name.startswith(prefix + "."):
            if best is None or len(layer) > len(best):
                best = layer
    return best


def _is_traced_name(name: str) -> bool:
    return not name.startswith("_") or name in _WRAPPED_DUNDERS


class CallTracer:
    """Wraps the layers' public callables; counts calls, keeps early spans."""

    #: full span records are kept for this many kernel events ...
    EVENT_LIMIT = 2000
    #: ... and at most this many spans (the cap where there is no kernel)
    SPAN_LIMIT = 60_000

    def __init__(self) -> None:
        self.iteration = 0
        #: (layer, qualified name) -> [calls]
        self.records: Dict[Tuple[str, str], List[int]] = {}
        #: full span records: [record key, start, end, parent index, iteration]
        self.spans: List[list] = []
        self._open: List[int] = [-1]  # indices of the spans being recorded
        # [keep_full_spans, kernel_events_seen]
        self._state: List[Any] = [False, 0]
        #: (owner, attribute, original object) of everything replaced
        self.wrapped: List[Tuple[Any, str, Any]] = []
        self._callback_keys: Dict[Any, Optional[Tuple[str, str]]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable of every loaded layer module."""
        if self.wrapped:
            raise RuntimeError("tracer already installed")
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if module is not None and name.startswith("repro.")
        }
        replaced: Dict[int, Callable] = {}
        for name, module in modules.items():
            layer = layer_of(name)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != name:
                    continue
                if isinstance(value, types.FunctionType):
                    if _is_traced_name(attr):
                        wrapper = self._span(value, (layer, value.__qualname__))
                        self._set(module, attr, value, wrapper)
                        replaced[id(value)] = wrapper
                elif isinstance(value, type):
                    self._wrap_class(value, layer)
        # ``from .x import f`` copies: point every alias at the wrapper
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and isinstance(value, types.FunctionType):
                    self._set(module, attr, value, wrapper)
        self._wrap_schedule_at()

    def uninstall(self) -> None:
        """Put every original object back (reverse order of wrapping)."""
        while self.wrapped:
            owner, attr, original = self.wrapped.pop()
            setattr(owner, attr, original)

    def _set(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self.wrapped.append((owner, attr, original))

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if not _is_traced_name(attr):
                continue
            if isinstance(value, types.FunctionType):
                replacement: Any = self._span(value, (layer, value.__qualname__))
            elif isinstance(value, (staticmethod, classmethod)) and isinstance(
                value.__func__, types.FunctionType
            ):
                inner = value.__func__
                replacement = type(value)(self._span(inner, (layer, inner.__qualname__)))
            else:
                continue
            try:
                self._set(cls, attr, value, replacement)
            except (AttributeError, TypeError):
                continue  # a class that refuses attribute assignment stays untraced

    def _wrap_schedule_at(self) -> None:
        """Make every scheduled callback a span of its defining layer."""
        kernel = sys.modules.get("repro.sim.kernel")
        if kernel is None:
            return
        simulator = kernel.Simulator
        spanned = vars(simulator)["schedule_at"]  # the span wrapper installed above
        callback_span = self._callback_span

        @functools.wraps(spanned)
        def schedule_at(sim, time, callback, name=""):
            return spanned(sim, time, callback_span(callback), name)

        self._set(simulator, "schedule_at", spanned, schedule_at)

    def _callback_span(self, callback: Callable[[], Any]) -> Callable[[], Any]:
        func = callback
        while isinstance(func, functools.partial):
            func = func.func
        func = getattr(func, "__func__", func)
        code = getattr(func, "__code__", None)
        try:
            key = self._callback_keys[code]
        except KeyError:
            layer = layer_of(getattr(func, "__module__", None) or "")
            key = None
            if code is not None and layer is not None:
                key = (layer, "event:" + getattr(func, "__qualname__", repr(func)))
            self._callback_keys[code] = key
        if key is None:
            return callback  # defined outside the layers: stays part of the dispatch
        return self._span(callback, key, is_event=True)

    # -- the span wrapper --------------------------------------------------

    def _span(self, fn: Callable, key: Tuple[str, str], is_event: bool = False) -> Callable:
        record = self.records.setdefault(key, [0])
        state = self._state
        spans = self.spans
        open_spans = self._open
        tracer = self

        def wrapper(*args, **kwargs):
            record[0] += 1
            if not state[0]:
                return fn(*args, **kwargs)
            if is_event:
                state[1] += 1
            if state[1] > tracer.EVENT_LIMIT or len(spans) >= tracer.SPAN_LIMIT:
                state[0] = False
                return fn(*args, **kwargs)
            span = [key, perf_counter(), 0.0, open_spans[-1], tracer.iteration]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
                span[2] = perf_counter()

        if not is_event:
            functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- the timed region --------------------------------------------------

    def begin_region(self) -> None:
        """Zero the counts; calls made during set-up are not the region's."""
        for record in self.records.values():
            record[0] = 0
        del self.spans[:]
        self._open[:] = [-1]
        self._state[0] = True
        self._state[1] = 0

    def end_region(self) -> None:
        self._state[0] = False

    # -- results -----------------------------------------------------------

    def calls_by_layer(self) -> Dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for (layer, _name), (calls,) in self.records.items():
            out[layer] += calls
        return out

    def top(self, n: int = 25) -> List[dict]:
        """The ``n`` most-called span kinds."""
        rows = [
            {"layer": layer, "name": name, "calls": calls}
            for (layer, name), (calls,) in self.records.items()
            if calls
        ]
        rows.sort(key=lambda row: -row["calls"])
        return rows[:n]

    def chrome_trace(self) -> dict:
        """The retained spans as Chrome-trace JSON (``chrome://tracing``,
        Perfetto): complete events on one thread, microsecond times."""
        events = []
        origin = self.spans[0][1] if self.spans else 0.0
        for index, ((layer, name), start, end, parent, iteration) in enumerate(self.spans):
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"span": index, "parent": parent, "iteration": iteration},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ns"}


class StackSampler:
    """Wall-clock stack sampler: seconds per ``(layer, function)``."""

    #: seconds between interrupts; a signal costs ~45us here, so 1 kHz is ~5%
    INTERVAL_S = 0.001

    def __init__(self) -> None:
        #: (layer or None, qualified function name) -> seconds
        self.seconds: Dict[Tuple[Optional[str], str], float] = {}
        self.samples = 0
        self.wall_s = 0.0
        self._layer_by_code: Dict[Any, Optional[str]] = {}
        self._last = 0.0
        self._start = 0.0
        self._previous_handler: Any = None

    def _on_tick(self, _signum: int, frame: Any) -> None:
        now = perf_counter()
        layers = self._layer_by_code
        key: Tuple[Optional[str], str] = (None, "")
        while frame is not None:
            code = frame.f_code
            try:
                layer = layers[code]
            except KeyError:
                layer = layers[code] = layer_of(frame.f_globals.get("__name__") or "")
            if layer is not None:
                key = (layer, code.co_qualname)
                break
            frame = frame.f_back
        # the whole interval since the last tick, so ticks that a long C
        # call swallowed are not lost
        self.seconds[key] = self.seconds.get(key, 0.0) + (now - self._last)
        self._last = now
        self.samples += 1

    def install(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_tick)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def begin_region(self) -> None:
        """Start ticking; regions of several iterations accumulate."""
        self._start = self._last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def end_region(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s += perf_counter() - self._start

    # -- results -----------------------------------------------------------

    def seconds_by_layer(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _name), seconds in self.seconds.items():
            if layer is not None:
                out[layer] += seconds
        return out

    def seconds_in(self, layer: str, names: Tuple[str, ...]) -> float:
        """Seconds charged to the named functions of ``layer``."""
        return sum(self.seconds.get((layer, name), 0.0) for name in names)

    def unattributed_s(self) -> float:
        """Region time under no layer frame (the benchmark's own loop,
        plus the tail after the last tick)."""
        return max(0.0, self.wall_s - sum(self.seconds_by_layer().values()))

    def top(self, n: int = 25) -> List[dict]:
        """The ``n`` functions with the largest self time."""
        rows = [
            {"layer": layer, "name": name, "self_s": seconds}
            for (layer, name), seconds in self.seconds.items()
            if layer is not None
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows[:n]
