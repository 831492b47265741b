"""The injection seam: lock factories the threaded subsystems call.

Production code never imports :mod:`repro.sanitize.locks` directly; it
creates its locks through :func:`new_lock` / :func:`new_condition`,
naming the lock's *domain* (``"service.hub"``, ``"daemon.conns"``).
With no sanitizer installed these return plain ``threading`` primitives
— the only overhead is one module-global check at lock *creation* time,
never per acquisition.  ``pytest --sanitize`` (see ``tests/conftest.py``)
installs a :class:`~repro.sanitize.locks.LockOrderSanitizer` here, so
every lock the hub, daemon, parallel stage and observability registry
create during the test session is a sanitized wrapper feeding the
observed lock-order graph.

The domain strings double as the vocabulary of the static analyzer:
``rflint --project`` derives the same names from these calls, so a
runtime ``order-cycle`` report and a static RFD703 finding point at the
same edge.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.sanitize.locks import LockOrderSanitizer

#: the installed sanitizer, or None for plain threading primitives
_SANITIZER: Optional[LockOrderSanitizer] = None


def install(sanitizer: Optional[LockOrderSanitizer] = None) -> LockOrderSanitizer:
    """Install (and return) a sanitizer; subsequent lock creations wrap."""
    global _SANITIZER
    if sanitizer is None:
        sanitizer = LockOrderSanitizer()
    _SANITIZER = sanitizer
    return sanitizer


def uninstall() -> None:
    """Back to plain threading primitives for newly created locks."""
    global _SANITIZER
    _SANITIZER = None


def current() -> Optional[LockOrderSanitizer]:
    """The installed sanitizer, if any."""
    return _SANITIZER


def new_lock(domain: str = "lock"):
    """A mutex for the given lock domain (sanitized when installed)."""
    if _SANITIZER is not None:
        return _SANITIZER.lock(domain)
    return threading.Lock()


def new_condition(domain: str = "condition"):
    """A condition variable for the given domain (sanitized when installed)."""
    if _SANITIZER is not None:
        return _SANITIZER.condition(domain)
    return threading.Condition()
