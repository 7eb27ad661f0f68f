"""Resource budgets for the long-running searches.

A Budget caps memory and wall time; a BudgetMeter tracks usage against it.
Memory accounting is explicit (we charge the big arrays and frontiers we
allocate), not a process-wide RSS probe, so the same inputs always hit the
same limits.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

_ENV_MB = "FACTORSET_BUDGET_MB"
_DEFAULT_MB = 2048


class BudgetExceededError(RuntimeError):
    """A search ran out of memory or time budget.

    Carries a ``progress`` dict with whatever statistics the search had
    accumulated when it gave up (the run and depth reached, frontier, ...).
    """

    def __init__(self, message: str, progress: dict | None = None):
        super().__init__(message)
        self.progress = dict(progress or {})


@dataclass(frozen=True)
class Budget:
    """Resource limits: bytes of working memory and wall seconds.

    ``workers`` limits nothing: every search runs in one process, and no
    code in the package reads it. It and ``default(workers=)`` stay because
    callers name it: the benchmark's oracle workload
    (``Budget.default(workers=2)``), and the tests that build budgets naming
    1, 4 or 16 workers and require the same results from each (acceptance
    criterion 11, ``tests/conftest.py`` and the worker tests of counting and
    enumeration), which is a fixed gate.
    """

    max_memory_bytes: int = _DEFAULT_MB << 20
    max_seconds: float | None = None
    workers: int = 1

    def __post_init__(self):
        if self.max_memory_bytes <= 0:
            raise ValueError("max_memory_bytes must be positive")
        if self.max_seconds is not None and not self.max_seconds > 0:  # NaN too
            raise ValueError("max_seconds must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @classmethod
    def default(cls, workers: int = 1) -> "Budget":
        mb = int(os.environ.get(_ENV_MB, _DEFAULT_MB))
        return cls(max_memory_bytes=mb << 20, workers=workers)


def _count(nbytes: int) -> str:
    """A byte count in decimal, or from 2^64 on as the power of two it
    reaches: Python refuses to write an int of over 4300 digits."""
    return str(nbytes) if nbytes < 1 << 64 else f"at least 2^{nbytes.bit_length() - 1}"


@dataclass
class BudgetMeter:
    """Tracks charged memory and elapsed time against a Budget."""

    budget: Budget
    charged_bytes: int = 0
    started: float = field(default_factory=time.monotonic)
    progress: dict = field(default_factory=dict)

    def charge_memory(self, nbytes: int, what: str = "") -> None:
        """Charge nbytes, or refuse them, leaving the charge as it was."""
        if self.charged_bytes + nbytes > self.budget.max_memory_bytes:
            raise BudgetExceededError(
                f"memory budget exceeded (requested {_count(nbytes)} with "
                f"{_count(self.charged_bytes)} held, budget "
                f"{_count(self.budget.max_memory_bytes)} bytes)"
                f"{' at ' + what if what else ''}",
                self.stats(),
            )
        self.charged_bytes += nbytes

    def release_memory(self, nbytes: int) -> None:
        self.charged_bytes = max(0, self.charged_bytes - nbytes)

    def check_time(self, what: str = "") -> None:
        if self.budget.max_seconds is None:
            return
        elapsed = time.monotonic() - self.started
        if elapsed > self.budget.max_seconds:
            # in milliseconds, as stats() gives it, but rounded up: a figure
            # rounded to nearest can read as the limit itself
            shown = math.ceil(elapsed * 1000) / 1000
            raise BudgetExceededError(
                f"time budget exceeded ({shown:.3f}s > {self.budget.max_seconds}s)"
                f"{' at ' + what if what else ''}",
                self.stats(),
            )

    def note(self, **kwargs) -> None:
        self.progress.update(kwargs)

    def stats(self) -> dict:
        out = dict(self.progress)
        out["charged_bytes"] = self.charged_bytes
        out["elapsed_seconds"] = round(time.monotonic() - self.started, 3)
        return out
