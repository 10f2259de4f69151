"""Wall-clock guard for tests of inputs that once hung.

A hostile input that sends a loop spinning would otherwise stall the
whole suite; under :func:`returns_within` it fails the one test with a
``TimeoutError`` instead.  The guard is a ``SIGALRM`` interval timer,
so it lives in the tests and never in ``src/``.
"""

import contextlib
import signal


@contextlib.contextmanager
def returns_within(seconds, what):
    """Raise ``TimeoutError`` if the block runs longer than ``seconds``."""

    def too_slow(signum, frame):
        raise TimeoutError(f"{what} did not return")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
