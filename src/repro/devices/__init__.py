"""Pluggable device models: one contract, many media technologies.

The package splits into a *surface* and *implementations*:

* surface — :mod:`repro.devices.base` (the :class:`DeviceModel`
  contract) and :mod:`repro.devices.registry`
  (:func:`make_device_model`). This is all ``disk/`` and ``array/``
  are allowed to import (layering rule 9).
* implementations — :mod:`repro.devices.hdd` (the paper's mechanical
  36Z15 path, byte-identical to the pre-refactor math) and
  :mod:`repro.devices.flash` (flat-latency multi-channel SSD/NVMe).
  The registry's literal ``DEVICE_MODELS`` table names both.

Slots are described by named :class:`~repro.config.DeviceSpec` presets
(``ultrastar_36z15``, ``generic_ssd``, ``generic_nvme``) carried on
:attr:`~repro.config.SimConfig.devices`.
"""

from repro.devices.base import DeviceGeometry, DeviceModel, ServiceBreakdown
from repro.devices.flash import FlashServiceModel, FlatGeometry
from repro.devices.hdd import HddDeviceModel
from repro.devices.registry import DEVICE_MODELS, make_device_model

__all__ = [
    "DEVICE_MODELS",
    "DeviceGeometry",
    "DeviceModel",
    "FlashServiceModel",
    "FlatGeometry",
    "HddDeviceModel",
    "ServiceBreakdown",
    "make_device_model",
]
