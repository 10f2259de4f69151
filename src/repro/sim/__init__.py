"""Discrete-event simulation kernel.

A minimal, dependency-free process-based simulator in the style of
SimPy: processes are Python generators that yield *events* (timeouts,
resource acquisitions, other processes) and are resumed when those
events fire.  The SSD substrate (:mod:`repro.ssd`) is built on top of
this kernel; the FPGA engine models are analytic and do not need it.

:mod:`repro.sim.maxplus` is the one event-free replay of a FIFO
``Server`` that every fast path calls; ``Server.serve`` is its oracle.
"""

from repro.sim.engine import AllOf, Event, Process, Simulator, Timeout
from repro.sim.resources import Resource, Server, Store
from repro.sim.sanitizer import Sanitizer, SanitizerError, sanitize_from_env

__all__ = [
    "AllOf",
    "Event",
    "Process",
    "Resource",
    "Sanitizer",
    "SanitizerError",
    "Server",
    "Simulator",
    "Store",
    "Timeout",
    "sanitize_from_env",
]
