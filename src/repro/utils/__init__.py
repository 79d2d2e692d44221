"""Shared utilities: configuration, errors, locking and the bounded LRU."""

from repro.utils.errors import (
    ReproError,
    ValidationError,
    ExecutionError,
    RewriteError,
    FrontendError,
    AllocationError,
    ConcurrencyError,
    ServiceOverloadError,
)
from repro.utils.config import Config, get_config, set_config, config_override
from repro.utils.locking import ContendedLock, SingleOwner

__all__ = [
    "ReproError",
    "ValidationError",
    "ExecutionError",
    "RewriteError",
    "FrontendError",
    "AllocationError",
    "ConcurrencyError",
    "ServiceOverloadError",
    "Config",
    "get_config",
    "set_config",
    "config_override",
    "ContendedLock",
    "SingleOwner",
]
