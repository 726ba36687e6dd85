"""Tiered artifact cache: local disk, then a shared directory.

Several independent server processes, on one host or several, share
one body of computed work through a second cache directory (NFS mount,
bind mount, or plain shared disk) without sharing a filesystem lock, a
journal, or a coordinator.  The tiered cache is that seam.  It *is* an
:class:`~repro.experiments.cache.ArtifactCache` (the local tier — same
root layout, same digests, same counters), extended with one read
fallback and one write echo: the **shared tier** is probed read-through
on a local miss and written write-through on every store.  A shared hit
is *promoted*: copied into the local tier via the atomic
``store_digest`` path, so the next probe never leaves local disk.

Tier order is strict — local, then shared — and every probe/outcome is
tallied per tier (:class:`TierCounters`), surfaced by ``/v1/stats``
(``tiered`` section) and ``/v1/metrics``
(``repro_tiered_<tier>_<counter>``).

Integrity: both tiers inherit the corruption-healing contract from
:class:`ArtifactCache` — an unreadable artifact is unlinked and tallied
``corrupt`` rather than poisoning its key — which matters doubly here
because a shared tier sees other hosts' torn writes.  The write-through
to the shared directory uses the same tmp-file + ``os.replace`` idiom
as every store, so a writer killed mid-copy leaves a ``.tmp`` dropping
(swept by gc), never a torn ``.pkl`` another process could read.

Byte identity is preserved by construction: tiers move *pickled
values*, and every digest covers kind, key, and code version, so a
document read from either tier unpickles to the identical string a
local computation would have rendered.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.experiments.cache import ArtifactCache

__all__ = [
    "TierCounters",
    "TieredArtifactCache",
]


@dataclass
class TierCounters:
    """Observability tallies for one tier of the cache.

    ``hits``/``misses`` count probes that reached this tier (a local
    hit never probes shared, so tier misses are not request misses);
    ``promotes`` counts artifacts copied *from* this tier into faster
    tiers; ``stores`` counts write-throughs landing here; ``errors``
    counts I/O failures swallowed by the fallback contract; ``corrupt`` counts unreadable artifacts healed here.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    promotes: int = 0
    errors: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits, "misses": self.misses,
            "stores": self.stores, "promotes": self.promotes,
            "errors": self.errors, "corrupt": self.corrupt,
        }


class _SharedTierCache(ArtifactCache):
    """The shared-directory tier: a plain cache that reports heals."""

    def __init__(self, root, *, version: str, tier: TierCounters) -> None:
        super().__init__(root, version=version)
        self._tier = tier

    def _heal(self, kind: str, digest: str) -> bool:
        healed = super()._heal(kind, digest)
        if healed:
            self._tier.corrupt += 1
        return healed


class TieredArtifactCache(ArtifactCache):
    """Local cache with a shared-directory read fallback.

    Drop-in for :class:`ArtifactCache` wherever one is used (the
    dispatcher, the experiment context, the CLI): with no
    ``shared_root`` it behaves identically to the plain cache apart
    from keeping tier tallies.
    """

    def __init__(
        self, root, *, shared_root=None, version: str = None
    ) -> None:
        super().__init__(root, version=version)
        self.tiers: Dict[str, TierCounters] = {
            "local": TierCounters(),
            "shared": TierCounters(),
        }
        self.shared: Optional[_SharedTierCache] = (
            _SharedTierCache(
                Path(shared_root), version=self.version,
                tier=self.tiers["shared"],
            )
            if shared_root else None
        )

    def worker_copy(self) -> "TieredArtifactCache":
        """The local and shared tiers, for a pool worker."""
        return TieredArtifactCache(
            self.root,
            shared_root=self.shared.root if self.shared is not None else None,
            version=self.version,
        )

    # -- reads ----------------------------------------------------------

    def exists_digest(self, kind: str, digest: str) -> bool:
        """Path probe across both tiers (no tallies)."""
        if super().exists_digest(kind, digest):
            return True
        return (self.shared is not None
                and self.shared.exists_digest(kind, digest))

    def readable_digest(self, kind: str, digest: str) -> bool:
        """Tier-walking form of the dispatcher's instant-complete probe.

        Both tiers are structurally verified (and healed on failure)
        with the cheap STOP-opcode check.
        """
        if super().readable_digest(kind, digest):
            self.tiers["local"].hits += 1
            return True
        self.tiers["local"].misses += 1
        if self.shared is not None:
            if self.shared.readable_digest(kind, digest):
                self.tiers["shared"].hits += 1
                return True
            self.tiers["shared"].misses += 1
        return False

    def load_digest(self, kind: str, digest: str) -> Tuple[bool, Any]:
        """Tier-walking load: local, then shared (promoted on a hit)."""
        hit, value = super().load_digest(kind, digest)
        if hit:
            self.tiers["local"].hits += 1
            return True, value
        self.tiers["local"].misses += 1
        if self.shared is not None:
            hit, value = self.shared.load_digest(kind, digest)
            if hit:
                self.tiers["shared"].hits += 1
                try:
                    super().store_digest(kind, digest, value)
                    self.tiers["shared"].promotes += 1
                except OSError:
                    self.tiers["local"].errors += 1
                return True, value
            self.tiers["shared"].misses += 1
        return False, None

    # -- writes ---------------------------------------------------------

    def store_digest(self, kind: str, digest: str, value: Any) -> str:
        """Local store plus best-effort write-through to the shared tier.

        The local store keeps the full atomicity/raciness contract of
        the base class; the shared echo may fail (mount gone, quota,
        permissions) without failing the caller — the artifact is
        durable locally and the failure is tallied, so a lost shared
        directory degrades to per-process caching rather than erroring
        jobs.
        """
        super().store_digest(kind, digest, value)
        if self.shared is not None:
            try:
                self.shared.store_digest(kind, digest, value)
                self.tiers["shared"].stores += 1
            except OSError:
                self.tiers["shared"].errors += 1
        self.tiers["local"].stores += 1
        return digest

    # -- reporting ------------------------------------------------------

    def tier_stats(self) -> dict:
        """The ``tiered`` section of ``/v1/stats`` (stable key order)."""
        return {
            "local": self.tiers["local"].as_dict(),
            "shared": self.tiers["shared"].as_dict(),
            "shared_root": (
                str(self.shared.root) if self.shared is not None else None
            ),
        }
