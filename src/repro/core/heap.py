"""Give the heap a process freed back to the OS.

Training allocates and frees many short-lived arrays; glibc keeps the
freed pages resident (~17 MiB after a demo-pool build), so a process that
built its pool would carry its training's high-water mark into the query
phase.  :func:`release_freed_heap` returns them: every expert extraction
ends with it, and a worker fleet calls it before each fork.
"""

from __future__ import annotations

import ctypes

__all__ = ["release_freed_heap"]


def _find_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library lacks it."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


_MALLOC_TRIM = _find_malloc_trim()


def release_freed_heap() -> None:
    """``malloc_trim(0)``: free heap pages go back to the OS (a no-op where
    the C library has no ``malloc_trim``).  Changes no live object."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
