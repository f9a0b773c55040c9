"""Device-model registry: :class:`DeviceKind` → model builder.

Mirrors the controller's policy registry (:mod:`repro.registry`): one
literal table maps each device kind to a builder, and the host layer
constructs per-slot models through :func:`make_device_model` without
naming any concrete class. This file plus :mod:`repro.devices.base` is
the whole surface ``disk/`` and ``array/`` are allowed to see.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.config import DeviceKind, DeviceSpec
from repro.devices.base import DeviceModel
from repro.devices.flash import FlashServiceModel
from repro.devices.hdd import HddDeviceModel
from repro.errors import ConfigError

#: Builder: ``(spec, block_size, rng, deterministic_rotation) -> model``.
DeviceBuilder = Callable[
    [DeviceSpec, int, Optional[np.random.Generator], bool], DeviceModel
]


def _build_hdd(
    spec: DeviceSpec,
    block_size: int,
    rng: Optional[np.random.Generator],
    deterministic_rotation: bool,
) -> DeviceModel:
    if spec.hdd is None:
        raise ConfigError(f"device {spec.name!r} has no mechanical params")
    return HddDeviceModel(
        spec.hdd,
        block_size,
        rng=rng,
        deterministic_rotation=deterministic_rotation,
    )


def _build_ssd(
    spec: DeviceSpec,
    block_size: int,
    rng: Optional[np.random.Generator],
    deterministic_rotation: bool,
) -> DeviceModel:
    if spec.ssd is None:
        raise ConfigError(f"device {spec.name!r} has no flash params")
    return FlashServiceModel(spec.ssd, block_size)


DEVICE_MODELS: Dict[DeviceKind, DeviceBuilder] = {
    DeviceKind.HDD: _build_hdd,
    DeviceKind.SSD: _build_ssd,
}


def make_device_model(
    spec: DeviceSpec,
    block_size: int,
    rng: Optional[np.random.Generator] = None,
    deterministic_rotation: bool = False,
) -> DeviceModel:
    """Build the service-time model for one array slot.

    ``rng`` feeds any stochastic phase (the HDD's sampled rotational
    latency); deterministic devices ignore it, so the host can hand
    every slot its named stream unconditionally.
    """
    builder = DEVICE_MODELS.get(spec.kind)
    if builder is None:
        raise ConfigError(
            f"no device model registered for kind {spec.kind.value!r}"
        )
    return builder(spec, block_size, rng, deterministic_rotation)
