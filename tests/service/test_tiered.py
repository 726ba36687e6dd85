"""Tests for the tiered artifact cache: local disk, then a shared dir.

Covers tier promotion order (local → shared, promote on hit),
shared-tier crash injection (a writer killed between tmp-write and
rename leaves the local tier intact and never publishes a torn artifact
another process could read), pool workers writing through to the shared
tier, and two independent servers over one shared directory: a split
sweep stays byte-identical to serial ``run_sweep``, and the server that
never computed a result instant-completes it from the other's work.
The servers are :class:`ServerThread` instances — the same server object
the CLI runs, in-thread for test speed; ``scripts/shared_cache_smoke.py``
covers the real multi-process spawn.
"""

import pickle

import pytest

from repro.experiments.cache import ArtifactCache, set_store_hook
from repro.experiments.export import render_manifest
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.experiments.sweep import adhoc_spec, run_sweep
from repro.service.client import get_metrics, get_stats, submit_and_wait
from repro.service.dispatcher import Dispatcher, sweep_title
from repro.service.metrics import parse_prometheus
from repro.service.queue import JobQueue, JobState
from repro.service.server import ServerThread
from repro.service.tiered import TieredArtifactCache

VERSION = "tiered-test"


def _tiered(tmp_path, name="a", **kwargs):
    kwargs.setdefault("shared_root", tmp_path / "shared")
    return TieredArtifactCache(
        tmp_path / f"local-{name}", version=VERSION, **kwargs
    )


class InjectedCrash(BaseException):
    """Simulated process death (BaseException so nothing swallows it)."""


class TestTierPromotion:
    def test_store_writes_through_to_shared(self, tmp_path):
        cache = _tiered(tmp_path)
        digest = cache.store("service", ("k",), "document")
        shared = ArtifactCache(tmp_path / "shared", version=VERSION)
        assert shared.load_digest("service", digest) == (True, "document")
        assert cache.tiers["local"].stores == 1
        assert cache.tiers["shared"].stores == 1

    def test_shared_hit_promotes_to_local(self, tmp_path):
        writer = _tiered(tmp_path, "writer")
        digest = writer.store("service", ("k",), "document")
        reader = _tiered(tmp_path, "reader")

        assert reader.load_digest("service", digest) == (True, "document")
        assert reader.tiers["local"].misses == 1
        assert reader.tiers["shared"].hits == 1
        assert reader.tiers["shared"].promotes == 1
        # Promoted: the next probe never leaves the local tier.
        assert reader.load_digest("service", digest) == (True, "document")
        assert reader.tiers["local"].hits == 1
        assert reader.tiers["shared"].hits == 1

    def test_local_hit_never_probes_shared(self, tmp_path):
        cache = _tiered(tmp_path)
        digest = cache.store("service", ("k",), "document")
        assert cache.load_digest("service", digest)[0]
        assert cache.tiers["shared"].hits == 0
        assert cache.tiers["shared"].misses == 0

    def test_readable_digest_walks_tiers(self, tmp_path):
        writer = _tiered(tmp_path, "writer")
        digest = writer.store("service", ("k",), "document")
        reader = _tiered(tmp_path, "reader")
        assert reader.readable_digest("service", digest)
        assert reader.tiers["shared"].hits == 1
        assert not reader.readable_digest("service", "0" * 64)

    def test_double_miss_is_clean(self, tmp_path):
        cache = _tiered(tmp_path)
        assert cache.load_digest("service", "0" * 64) == (False, None)
        assert cache.tiers["local"].misses == 1
        assert cache.tiers["shared"].misses == 1

    def test_no_shared_root_degrades_to_plain_cache(self, tmp_path):
        cache = TieredArtifactCache(tmp_path / "solo", version=VERSION)
        digest = cache.store("service", ("k",), "document")
        assert cache.load_digest("service", digest) == (True, "document")
        assert cache.tier_stats()["shared_root"] is None

    def test_readable_probe_does_not_promote(self, tmp_path):
        writer = _tiered(tmp_path, "writer")
        digest = writer.store("service", ("k",), "document")
        reader = _tiered(tmp_path, "reader")
        assert reader.readable_digest("service", digest)
        assert reader.tiers["shared"].promotes == 0
        local = ArtifactCache(tmp_path / "local-reader", version=VERSION)
        assert not local.exists_digest("service", digest)

    def test_first_write_through_creates_the_shared_directory(
        self, tmp_path
    ):
        cache = _tiered(tmp_path, shared_root=tmp_path / "mnt" / "shared")
        assert not (tmp_path / "mnt").exists()
        digest = cache.store("service", ("k",), "document")
        assert cache.shared.load_digest("service", digest) == (
            True, "document"
        )

    def test_gc_prunes_only_the_local_tier(self, tmp_path):
        """One server's gc never deletes work the others rely on."""
        cache = _tiered(tmp_path)
        digest = cache.store("service", ("k",), "document")
        cache.gc(max_bytes=0)
        local = ArtifactCache(tmp_path / "local-a", version=VERSION)
        assert not local.exists_digest("service", digest)
        assert cache.shared.exists_digest("service", digest)
        assert cache.load_digest("service", digest) == (True, "document")
        assert cache.tiers["shared"].promotes == 1

    def test_exists_digest_sees_shared_only_artifact_without_tallies(
        self, tmp_path
    ):
        writer = _tiered(tmp_path, "writer")
        digest = writer.store("service", ("k",), "document")
        reader = _tiered(tmp_path, "reader")
        assert reader.exists_digest("service", digest)
        assert not reader.exists_digest("service", "0" * 64)
        # A path probe is neither a hit nor a miss on either tier.
        for tier in ("local", "shared"):
            assert reader.tiers[tier].hits == 0
            assert reader.tiers[tier].misses == 0

    def test_other_code_version_misses_the_shared_tier(self, tmp_path):
        writer = _tiered(tmp_path, "writer")
        writer.store("service", ("k",), "document")
        reader = TieredArtifactCache(
            tmp_path / "local-reader", shared_root=tmp_path / "shared",
            version="other-version",
        )
        assert reader.lookup("service", ("k",)) == (False, None)
        assert reader.tiers["shared"].misses == 1

    def test_readable_digest_heals_torn_shared_artifact(self, tmp_path):
        writer = _tiered(tmp_path, "writer")
        digest = writer.store("service", ("k",), "document")
        torn = (tmp_path / "shared" / "service" / digest[:2]
                / f"{digest}.pkl")
        torn.write_bytes(pickle.dumps("document")[:7])

        reader = _tiered(tmp_path, "reader")
        assert not reader.readable_digest("service", digest)
        assert not torn.exists()
        assert reader.tiers["shared"].corrupt == 1
        assert reader.tiers["shared"].misses == 1


class TestWorkerCopy:
    def test_keeps_both_roots_and_the_version(self, tmp_path):
        cache = _tiered(tmp_path)
        copy = cache.worker_copy()
        assert isinstance(copy, TieredArtifactCache)
        assert copy.root == cache.root
        assert copy.shared.root == cache.shared.root
        assert copy.version == cache.version == VERSION

    def test_without_shared_tier_stays_local_only(self, tmp_path):
        cache = TieredArtifactCache(tmp_path / "solo", version=VERSION)
        copy = cache.worker_copy()
        assert copy.shared is None
        assert copy.tier_stats()["shared_root"] is None

    def test_starts_with_fresh_tallies(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.store("service", ("k",), "document")
        copy = cache.worker_copy()
        assert copy.tiers["local"].stores == 0
        assert copy.tiers["shared"].stores == 0
        # ...but shares the bytes the parent already wrote.
        assert copy.lookup("service", ("k",)) == (True, "document")


class TestSharedTierFailures:
    """A lost or read-only shared directory degrades, never errors."""

    def test_shared_store_failure_is_tallied_not_raised(
        self, tmp_path, monkeypatch
    ):
        cache = _tiered(tmp_path)

        def refuse(kind, digest, value):
            raise OSError("shared mount gone")

        monkeypatch.setattr(cache.shared, "store_digest", refuse)
        digest = cache.store("service", ("k",), "document")
        assert cache.tiers["shared"].errors == 1
        assert cache.tiers["shared"].stores == 0
        assert cache.tiers["local"].stores == 1
        local = ArtifactCache(tmp_path / "local-a", version=VERSION)
        assert local.load_digest("service", digest) == (True, "document")

    def test_failed_promotion_still_serves_the_shared_value(
        self, tmp_path, monkeypatch
    ):
        writer = _tiered(tmp_path, "writer")
        digest = writer.store("service", ("k",), "document")

        def refuse(self, kind, digest, value):
            raise OSError("local disk full")

        monkeypatch.setattr(ArtifactCache, "store_digest", refuse)
        reader = _tiered(tmp_path, "reader")
        assert reader.load_digest("service", digest) == (True, "document")
        assert reader.tiers["shared"].hits == 1
        assert reader.tiers["shared"].promotes == 0
        assert reader.tiers["local"].errors == 1
        monkeypatch.undo()
        assert not ArtifactCache(
            tmp_path / "local-reader", version=VERSION
        ).exists_digest("service", digest)


class TestSharedTierCrashInjection:
    """A writer dying mid-write-through must never publish torn bytes."""

    def _crash_in_shared(self, tmp_path, stage):
        cache = _tiered(tmp_path, "writer")
        shared_root = str(tmp_path / "shared")
        fired = []

        def hook(hook_stage, path):
            if hook_stage == stage and str(path).startswith(shared_root):
                fired.append(str(path))
                raise InjectedCrash(f"{stage} in shared tier")

        set_store_hook(hook)
        try:
            with pytest.raises(InjectedCrash):
                cache.store("service", ("k",), "document")
        finally:
            set_store_hook(None)
        assert fired, "trap never fired"
        return cache

    @pytest.mark.parametrize("stage", ["write", "rename"])
    def test_local_tier_survives_shared_crash(self, tmp_path, stage):
        cache = self._crash_in_shared(tmp_path, stage)
        digest = cache.digest("service", (("k",)))
        # The local store completed before the shared write-through
        # began, so this server still serves its own work.
        local = ArtifactCache(tmp_path / "local-writer", version=VERSION)
        assert local.load_digest("service", digest) == (True, "document")

    @pytest.mark.parametrize("stage", ["write", "rename"])
    def test_no_torn_artifact_visible_to_peers(self, tmp_path, stage):
        cache = self._crash_in_shared(tmp_path, stage)
        digest = cache.digest("service", (("k",)))
        shared = ArtifactCache(tmp_path / "shared", version=VERSION)
        # The shared tier has either nothing at all or nothing readable
        # under the digest — never torn bytes another server would trust.
        assert not shared.exists_digest("service", digest)
        reader = _tiered(tmp_path, "reader")
        assert reader.load_digest("service", digest) == (False, None)

    def test_torn_shared_artifact_is_healed_by_reader(self, tmp_path):
        """Belt and braces: even if torn bytes *did* land in the shared
        dir (a real kill mid-``write(2)``, no atomic rename), a reader
        heals them and recomputes instead of serving garbage."""
        writer = _tiered(tmp_path, "writer")
        digest = writer.store("service", ("k",), "document")
        torn = (tmp_path / "shared" / "service" / digest[:2]
                / f"{digest}.pkl")
        torn.write_bytes(pickle.dumps("document")[:7])

        reader = _tiered(tmp_path, "reader")
        assert reader.load_digest("service", digest) == (False, None)
        assert not torn.exists()
        assert reader.tiers["shared"].corrupt == 1

    def test_crash_leaves_no_tmp_behind_on_rename_stage(self, tmp_path):
        # The store path's BaseException cleanup sweeps its tmp file;
        # real kills leave droppings for gc — either way no ``.pkl``.
        self._crash_in_shared(tmp_path, "rename")
        assert list((tmp_path / "shared").glob("**/*.pkl")) == []


class TestPoolWorkersUseSharedTier:
    def test_pooled_batch_writes_simulation_artifacts_to_shared(
        self, tmp_path
    ):
        """Pool workers build their cache from the parent's local and
        shared roots, so the traces and timing stats they compute reach
        the shared directory, not only the local one."""
        queue = JobQueue(tmp_path / "queue")
        dispatcher = Dispatcher(
            queue, tmp_path / "local", jobs=2,
            cache=TieredArtifactCache(
                tmp_path / "local", shared_root=tmp_path / "shared"
            ),
        )
        try:
            job = dispatcher.submit(
                {"kind": "sweep", "axis": "regfile", "values": ["34", "42"],
                 "workloads": ["li_like"], "profile": "tiny"},
                "alice",
            )
            assert dispatcher.drain_once() == 1
            assert queue.get(job.id).state is JobState.DONE
        finally:
            dispatcher.shutdown_pool()
            queue.close()
        for kind in ("timed", "trace"):
            local = {p.name for p in (tmp_path / "local" / kind).glob("*/*.pkl")}
            shared = {
                p.name for p in (tmp_path / "shared" / kind).glob("*/*.pkl")
            }
            assert local and shared == local


TINY = ExperimentProfile.tiny()

SWEEP_VALUES = ("34", "42")


def _payload(values):
    return {"kind": "sweep", "axis": "regfile", "values": list(values),
            "workloads": ["li_like"], "profile": "tiny"}


def _serial_document(values) -> bytes:
    """The direct serial run_sweep manifest for ``values``."""
    spec = adhoc_spec(
        "regfile", TINY, values=list(values), workloads=["li_like"]
    )
    result = run_sweep(
        spec, TINY, ExperimentContext(TINY),
        title=sweep_title("regfile", TINY),
    )
    return render_manifest(TINY.name, {spec.name: result}).encode("utf-8")


def _server(tmp_path, name):
    """One plain server with a private queue and local cache over the
    shared directory every server in the test points at."""
    return ServerThread(
        tmp_path / f"queue-{name}", tmp_path / f"cache-{name}",
        shared_cache_dir=tmp_path / "shared-cache",
    )


class TestTwoServersShareOneDirectory:
    def test_split_sweep_is_byte_identical_to_serial(self, tmp_path):
        with _server(tmp_path, "a") as first, _server(tmp_path, "b") as second:
            # Each half of the sweep runs on a different server; the
            # combined sweep then reassembles bit-for-bit on either.
            for url, values in ((first.url, ["34"]), (second.url, ["42"]),
                                (first.url, list(SWEEP_VALUES))):
                job, document = submit_and_wait(
                    url, _payload(values), timeout=300,
                )
                assert job["state"] == "done"
                assert document == _serial_document(values)

    def test_cold_server_instant_completes_via_shared_tier(self, tmp_path):
        payload = _payload(["34"])
        with _server(tmp_path, "warm") as warm, \
                _server(tmp_path, "cold") as cold:
            job, document = submit_and_wait(warm.url, payload, timeout=300)
            assert job["state"] == "done"

            # The cold server never ran this sweep, yet completes it
            # instantly from the shared directory tier.
            job, again = submit_and_wait(cold.url, payload, timeout=60)
            assert job["source"] == "cache"
            assert again == document == _serial_document(["34"])

            stats = get_stats(cold.url)
            assert stats["dispatcher"]["jobs_from_cache"] == 1
            assert stats["dispatcher"]["batches"] == 0
            tiers = stats["tiered"]
            assert tiers["shared"]["hits"] >= 1
            assert tiers["shared"]["promotes"] >= 1

    def test_server_without_shared_dir_recomputes(self, tmp_path):
        payload = _payload(["34"])
        with _server(tmp_path, "warm") as warm, ServerThread(
            tmp_path / "queue-solo", tmp_path / "cache-solo",
        ) as solo:
            _, document = submit_and_wait(warm.url, payload, timeout=300)
            # No shared directory: the other server's work is invisible,
            # so this one computes the sweep itself, to the same bytes.
            job, again = submit_and_wait(solo.url, payload, timeout=300)
            assert job["source"] != "cache"
            assert again == document
            stats = get_stats(solo.url)
            assert stats["dispatcher"]["batches"] == 1
            assert stats["tiered"]["shared_root"] is None

    def test_metrics_expose_local_and_shared_tiers_only(self, tmp_path):
        with _server(tmp_path, "a") as server:
            names = set(parse_prometheus(get_metrics(server.url)))
        for tier in ("local", "shared"):
            for counter in ("hits", "misses", "stores", "promotes",
                            "errors", "corrupt"):
                assert f"repro_tiered_{tier}_{counter}" in names
        assert not [n for n in names
                    if "peer" in n or n.startswith("repro_shard")]
