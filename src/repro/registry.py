"""Component registry: configuration enums → component constructors.

:class:`~repro.host.system.System` used to hard-code if/else chains
mapping :class:`~repro.config.CacheOrganization` and
:class:`~repro.config.ReadAheadKind` to concrete classes. The registry
replaces those chains with two literal lookup tables, so a new cache
organization or read-ahead policy plugs in by adding a factory and a
table entry here — no edits to the system assembler.

Factories receive the full :class:`~repro.config.SimConfig` plus the
per-disk context they may need (disk id, the seeded
:class:`~repro.sim.rng.RandomStreams`, per-disk sequentiality bitmaps)
and return a ready component.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cache.base import ControllerCache
from repro.cache.block import BlockCache
from repro.cache.segment import SegmentCache
from repro.config import CacheOrganization, ReadAheadKind, SimConfig
from repro.errors import ConfigError
from repro.readahead.base import ReadAheadPolicy
from repro.readahead.bitmap import SequentialityBitmap
from repro.readahead.blind import BlindReadAhead
from repro.readahead.file_oriented import FileOrientedReadAhead
from repro.readahead.none import NoReadAhead
from repro.sim.rng import RandomStreams

CacheFactory = Callable[[SimConfig, int, RandomStreams], ControllerCache]
ReadAheadFactory = Callable[
    [SimConfig, int, Optional[List[SequentialityBitmap]]], ReadAheadPolicy
]


def _segment_cache(
    config: SimConfig, disk_id: int, streams: RandomStreams
) -> ControllerCache:
    return SegmentCache(
        n_segments=config.effective_segments,
        segment_blocks=config.cache.segment_blocks,
        policy=config.cache.segment_policy,
        rng=streams.stream(f"disk{disk_id}.segcache"),
    )


def _block_cache(
    config: SimConfig, disk_id: int, streams: RandomStreams
) -> ControllerCache:
    return BlockCache(
        capacity_blocks=config.effective_cache_blocks,
        policy=config.cache.block_policy,
    )


def _blind_readahead(
    config: SimConfig, disk_id: int, bitmaps: Optional[List[SequentialityBitmap]]
) -> ReadAheadPolicy:
    return BlindReadAhead(config.cache.segment_blocks)


def _no_readahead(
    config: SimConfig, disk_id: int, bitmaps: Optional[List[SequentialityBitmap]]
) -> ReadAheadPolicy:
    return NoReadAhead()


def _file_oriented_readahead(
    config: SimConfig, disk_id: int, bitmaps: Optional[List[SequentialityBitmap]]
) -> ReadAheadPolicy:
    if bitmaps is None:
        raise ConfigError(
            "file-oriented read-ahead requires per-disk bitmaps "
            "(build them with repro.fs.build_bitmaps)"
        )
    return FileOrientedReadAhead(bitmaps[disk_id], config.cache.segment_blocks)


_CACHE_FACTORIES: Dict[CacheOrganization, CacheFactory] = {
    CacheOrganization.SEGMENT: _segment_cache,
    CacheOrganization.BLOCK: _block_cache,
}

_READAHEAD_FACTORIES: Dict[ReadAheadKind, ReadAheadFactory] = {
    ReadAheadKind.BLIND: _blind_readahead,
    ReadAheadKind.NONE: _no_readahead,
    ReadAheadKind.FILE_ORIENTED: _file_oriented_readahead,
}


def make_cache(
    config: SimConfig, disk_id: int, streams: RandomStreams
) -> ControllerCache:
    """Build one disk's controller cache per ``config``."""
    factory = _CACHE_FACTORIES.get(config.cache.organization)
    if factory is None:
        raise ConfigError(
            f"no cache factory registered for {config.cache.organization!r}"
        )
    return factory(config, disk_id, streams)


def make_readahead(
    config: SimConfig,
    disk_id: int,
    bitmaps: Optional[List[SequentialityBitmap]],
) -> ReadAheadPolicy:
    """Build one disk's read-ahead policy per ``config``."""
    factory = _READAHEAD_FACTORIES.get(config.readahead)
    if factory is None:
        raise ConfigError(
            f"no read-ahead factory registered for {config.readahead!r}"
        )
    return factory(config, disk_id, bitmaps)
