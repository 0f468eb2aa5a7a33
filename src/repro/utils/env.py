"""Validated parsing of on/off ``REPRO_*`` environment switches.

``REPRO_NATIVE`` (compiled kernel or NumPy fallback) once parsed its value
ad hoc: an unrecognized value silently meant "on", so a typo like
``REPRO_NATIVE=2`` changed behaviour without any signal.  :func:`env_switch`
parses with one contract: recognized values parse, everything else raises
a single clear :class:`~repro.utils.validation.ValidationError` naming the
switch, the offending value and the accepted spellings — at the first use
of the switch (the first kernel dispatch), never a raw ``ValueError``
traceback from deep inside worker bootstrap.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.utils.validation import ValidationError

__all__ = ["env_switch"]


def env_switch(name: str, *, on: Sequence[str], off: Sequence[str]) -> bool:
    """Parse the on/off environment switch *name*.

    Values in *on* (matched case-insensitively) mean ``True``, values in
    *off* mean ``False``; include ``""`` in the side that is the default
    for an unset variable.  Anything else raises a
    :class:`ValidationError` listing the accepted spellings — a typo must
    never silently pick a side.
    """
    raw = os.environ.get(name, "")
    value = raw.strip().lower()
    if value in off:
        return False
    if value in on:
        return True
    accepted = sorted(set(spelling for spelling in (*on, *off) if spelling))
    raise ValidationError(
        f"{name} must be unset or one of {accepted}, got {raw!r}"
    )

