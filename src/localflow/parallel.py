"""A plain in-order map over independent per-item work.

Kept as its own module only because the benchmark's tracer wraps
``localflow.parallel.parallel_map`` by name; it goes once the benchmark
drops that target.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

A = TypeVar("A")
B = TypeVar("B")


def parallel_map(fn: Callable[[A], B], items: Iterable[A]) -> list[B]:
    """``[fn(x) for x in items]``, in input order."""
    return [fn(x) for x in items]
