"""Size-bounded SuiteCache: LRU eviction, prune, env plumbing."""

import os
import pickle

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.api.config import ENV_CACHE_MAX_MB
from repro.pipeline.parallel import SuiteCache

REF = "synthetic:biased?length=250&seed=4"


def _fill(cache: SuiteCache, names: list[str], size: int = 100) -> None:
    for name in names:
        cache.put(name, b"x" * size)  # pickled payload; content is irrelevant here


def _entry_names(directory) -> set[str]:
    return {name[:-4] for name in os.listdir(directory) if name.endswith(".pkl")}


class TestPrune:
    def test_prune_evicts_oldest_mtime_first(self, tmp_path):
        cache = SuiteCache(str(tmp_path))
        _fill(cache, ["aa", "bb", "cc"])
        sizes = {n: os.path.getsize(tmp_path / f"{n}.pkl") for n in ("aa", "bb", "cc")}
        for offset, name in enumerate(("aa", "bb", "cc")):
            os.utime(tmp_path / f"{name}.pkl", (1000 + offset, 1000 + offset))
        summary = cache.prune(max_bytes=sizes["bb"] + sizes["cc"])
        assert summary["removed"] == 1 and summary["reclaimed_bytes"] == sizes["aa"]
        assert _entry_names(tmp_path) == {"bb", "cc"}

    def test_prune_without_limit_is_noop(self, tmp_path):
        cache = SuiteCache(str(tmp_path))
        _fill(cache, ["aa", "bb"])
        assert cache.prune()["removed"] == 0
        assert _entry_names(tmp_path) == {"aa", "bb"}

    def test_get_refreshes_recency(self, tmp_path):
        """A hot entry survives pruning however old its first write was."""
        cache = SuiteCache(str(tmp_path))
        for name in ("old-but-hot", "newer"):
            cache.put(name, b"y" * 100)
        os.utime(tmp_path / "old-but-hot.pkl", (1000, 1000))
        os.utime(tmp_path / "newer.pkl", (2000, 2000))
        assert cache.get("old-but-hot") is not None  # refreshes mtime to now
        cache.prune(max_bytes=os.path.getsize(tmp_path / "newer.pkl"))
        assert _entry_names(tmp_path) == {"old-but-hot"}

    def test_put_auto_evicts_with_max_bytes(self, tmp_path):
        entry_size = len(pickle.dumps(b"z" * 100))
        cache = SuiteCache(str(tmp_path), max_bytes=2 * entry_size)
        for offset, name in enumerate(("aa", "bb", "cc")):
            cache.put(name, b"z" * 100)
            os.utime(tmp_path / f"{name}.pkl", (1000 + offset, 1000 + offset))
        assert len(_entry_names(tmp_path)) <= 2
        assert "cc" in _entry_names(tmp_path)  # the newest write is never the victim
        assert cache.evictions >= 1

    def test_first_bounded_put_of_a_fresh_cache_lists_nothing(self, tmp_path, monkeypatch):
        """The size estimate on disk spares each new cache a directory scan."""
        _fill(SuiteCache(str(tmp_path), max_bytes=1 << 20), [f"e{i}" for i in range(20)])
        listings = []
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: listings.append(path) or listdir(path))
        SuiteCache(str(tmp_path), max_bytes=1 << 20).put("fresh", b"f" * 100)
        assert listings == []
        assert "fresh" in _entry_names(tmp_path)

    def test_bound_holds_across_two_caches_on_one_directory(self, tmp_path):
        entry_size = len(pickle.dumps(b"w" * 100))
        bound = 3 * entry_size
        caches = [SuiteCache(str(tmp_path), max_bytes=bound) for _ in range(2)]
        for index in range(12):
            caches[index % 2].put(f"k{index:02d}", b"w" * 100)
            total = sum(os.path.getsize(tmp_path / f"{name}.pkl")
                        for name in _entry_names(tmp_path))
            assert total <= bound, (index, total)
        assert "k11" in _entry_names(tmp_path)
        assert sum(cache.evictions for cache in caches) == 9

    def test_negative_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            SuiteCache(str(tmp_path), max_bytes=-1)

    def test_stats_reports_bound(self, tmp_path):
        assert SuiteCache(str(tmp_path), max_bytes=512).stats()["max_bytes"] == 512
        assert SuiteCache(str(tmp_path)).stats()["max_bytes"] is None


class TestConfigPlumbing:
    def test_env_parsing(self):
        config = RunnerConfig.from_env({ENV_CACHE_MAX_MB: "1.5"})
        assert config.cache_max_mb == 1.5
        assert config.cache_max_bytes == int(1.5 * 1024 * 1024)

    def test_invalid_env_values_raise(self):
        for bogus in ("lots", "-3"):
            with pytest.raises(ValueError, match=ENV_CACHE_MAX_MB):
                RunnerConfig.from_env({ENV_CACHE_MAX_MB: bogus})
        # "0"/"unbounded" are not errors: they lift the default bound.
        assert RunnerConfig.from_env({ENV_CACHE_MAX_MB: "0"}).cache_max_mb is None

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="cache_max_mb"):
            RunnerConfig(cache_max_mb=0)

    def test_runner_cache_carries_the_bound(self, tmp_path):
        runner = Runner(RunnerConfig(cache_dir=str(tmp_path), cache_max_mb=1.0))
        assert runner.cache is not None
        assert runner.cache.max_bytes == 1024 * 1024

    def test_bounded_cache_still_serves_hits(self, tmp_path):
        config = RunnerConfig(cache_dir=str(tmp_path), cache_max_mb=64.0)
        request = RunRequest("gshare", REF)
        first = Runner(config).run(request)
        rerun = Runner(config)
        second = rerun.run(request)
        assert rerun.cache.hits == 1
        assert pickle.dumps(first) == pickle.dumps(second)


class TestCacheCLI:
    def test_cache_prune_cli(self, tmp_path, capsys):
        import json

        from repro.api.cli import main

        cache = SuiteCache(str(tmp_path))
        _fill(cache, ["aa", "bb", "cc"], size=300)
        for offset, name in enumerate(("aa", "bb", "cc")):
            os.utime(tmp_path / f"{name}.pkl", (1000 + offset, 1000 + offset))
        keep = sum(os.path.getsize(tmp_path / f"{n}.pkl") for n in ("bb", "cc"))
        code = main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--cache-max-mb", str(keep / (1024 * 1024)), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed"] == 1
        assert _entry_names(tmp_path) == {"bb", "cc"}

    def test_cache_prune_without_bound_is_an_error(self, tmp_path, capsys, monkeypatch):
        from repro.api.cli import main

        # A bare prune inherits the default bound; the error only arises
        # when the operator has explicitly unbounded the cache.
        monkeypatch.setenv("REPRO_SUITE_CACHE_MAX_MB", "unbounded")
        code = main(["cache", "prune", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "size bound" in capsys.readouterr().err
        monkeypatch.delenv("REPRO_SUITE_CACHE_MAX_MB")
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
