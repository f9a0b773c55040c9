"""Mechanical-drive device model: the paper's §2.1 mechanics, wrapped.

:class:`HddDeviceModel` *is* :class:`~repro.mechanics.service.
ServiceTimeModel` — subclassing rather than delegating means the
refactor routes the all-HDD configurations through literally the same
code and the same RNG draw order, keeping every committed golden
byte-identical — plus the device-model contract: a :attr:`kind` tag and a
single-channel declaration (one arm, one operation at a time).
"""

from __future__ import annotations

from repro.config import DeviceKind
from repro.mechanics.service import ServiceTimeModel

__all__ = ["HddDeviceModel"]


class HddDeviceModel(ServiceTimeModel):
    """One mechanical disk drive behind the device-model contract."""

    kind = DeviceKind.HDD
    #: A single arm services one media operation at a time.
    channels = 1

