"""A memo that lives for one verification run and no longer.

``_run_scope()`` opens an empty dict in a context variable and drops it on
exit.  A function decorated with ``_per_run`` looks its result up there
while a scope is open, keyed by the function and its arguments, and is
called plainly outside one.  So the rings, generator lists and Betti
tables that several checks of one run share are built once, and nothing
they hold outlives the run.

Arguments are part of the key as they are: labels, n, fields and caps
compare by value, and rings, which define no equality, by identity.  The
key holds the ring itself, so its id cannot be reused while the entry
lives.  Callers must not mutate a result: every check of the run sees it.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar

_memo: ContextVar[dict | None] = ContextVar("aciring_run_memo", default=None)


@contextmanager
def _run_scope():
    """Open a fresh memo for the calls inside the block; drop it on exit."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _per_run(fn):
    """Share fn's result between the calls with equal arguments inside one scope."""

    @functools.wraps(fn)
    def shared(*args, **kwargs):
        memo = _memo.get()
        if memo is None:
            return fn(*args, **kwargs)
        key = (fn, args, tuple(sorted(kwargs.items())))
        if key not in memo:
            memo[key] = fn(*args, **kwargs)
        return memo[key]

    return shared
