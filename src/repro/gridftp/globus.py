"""Globus transfer service policy.

Globus transfer (the hosted service, [2] in the paper) "selects transfer
protocol parameters; monitors and retries transfers when there are faults".
:class:`GlobusPolicy` is the default parameter choice; for large files
concurrency 2 and parallelism 8 (the paper's ``default`` baseline).  Fault
injection and retries live in :mod:`repro.faults`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MB


@dataclass(frozen=True)
class GlobusPolicy:
    """Static parameter selection mimicking the Globus service defaults."""

    #: files at or above this size get the large-file settings (Globus
    #: tiers its defaults by file size; 100 MB is the relevant cutoff for
    #: the paper's memory-to-memory streams).
    large_file_threshold_bytes: float = 100 * MB
    large_nc: int = 2
    large_np: int = 8
    small_nc: int = 2
    small_np: int = 2

    def __post_init__(self) -> None:
        if self.large_file_threshold_bytes <= 0:
            raise ValueError("threshold must be positive")
        for v in (self.large_nc, self.large_np, self.small_nc, self.small_np):
            if v < 1:
                raise ValueError("default parameters must be >= 1")

    def choose(self, mean_file_bytes: float) -> tuple[int, int]:
        """(nc, np) for a transfer whose files average ``mean_file_bytes``."""
        if mean_file_bytes <= 0:
            raise ValueError("mean_file_bytes must be positive")
        if mean_file_bytes >= self.large_file_threshold_bytes:
            return (self.large_nc, self.large_np)
        return (self.small_nc, self.small_np)
