"""Discrete-event simulation kernel.

Public surface::

    from repro.sim import Engine, Event, AnyOf, AllOf, Process, Queue
    from repro.sim import Tracer, RngRegistry, stream
"""

from .engine import Engine, Timer
from .events import AllOf, AnyOf, Event
from .process import Process
from .queues import Queue
from .rng import RngRegistry, stream
from .trace import NullTracer, TraceRecord, Tracer

__all__ = [
    "Engine",
    "Timer",
    "Event",
    "AnyOf",
    "AllOf",
    "Process",
    "Queue",
    "RngRegistry",
    "stream",
    "Tracer",
    "NullTracer",
    "TraceRecord",
]
