"""Tests for the shared checksummed-artifact container (repro.store):
one damage suite over every artifact kind, golden hashes that pin the
trace and graph store bytes, atomic writes, and the cache layout."""

from __future__ import annotations

import hashlib
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro import store
from repro.experiments import results_cache as rc
from repro.experiments import workloads
from repro.graphs import ingest
from repro.trace import store as trace_store
from repro.trace.layout import AddressSpace
from repro.trace.record import ACCESS_DTYPE, Trace

REPO = Path(__file__).resolve().parents[1]


def toy_trace(n: int = 64) -> Trace:
    space = AddressSpace()
    r = space.add("data", 4, n, irregular_hint=True)
    acc = np.zeros(n, dtype=ACCESS_DTYPE)
    acc["pc"] = 0x40_0000
    acc["addr"] = r.addr(np.arange(n))
    acc["write"][::3] = 1
    acc["gap"] = 2
    acc["dep"] = -1
    acc["dep"][1:] = np.arange(n - 1)
    return Trace(acc, space, "toy", "pr", "kron")


TOY_EDGES = ((0, 1, 3), (0, 2, 5), (1, 2, 7), (2, 0, 9), (2, 2, 1),
             (3, 1, 4), (0, 1, 2))


def ingest_toy(directory: Path, ext: str = "el",
               symmetrize: bool = False) -> Path:
    """Ingest the toy edge list from ``directory`` (the working
    directory), so the recorded source path is the relative
    ``toy.<ext>`` and the store bytes do not depend on ``directory``."""
    with open(directory / f"toy.{ext}", "w") as fh:
        for a, b, w in TOY_EDGES:
            fh.write(f"{a} {b} {w}\n" if ext == "wel" else f"{a} {b}\n")
    name = f"toy{ext}{int(symmetrize)}"
    return ingest.ingest_graph(f"toy.{ext}", name=name,
                               symmetrize=symmetrize, force=True).path


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


# -- one damage suite over every kind ---------------------------------------

def _write_trace(path: Path) -> None:
    trace_store.write_trace(toy_trace(), path)


def _write_graph(path: Path) -> None:
    ingest_toy(path.parent).replace(path)


#: A fixed results-cache payload: nested objects, a list, ints, floats
#: and a null, the value types a ``SystemStats`` payload holds.
RESULT_PAYLOAD = {"variant": "sdc_lp", "cycles": 1234.5,
                  "l1d": {"hits": 7, "misses": 3},
                  "levels": [0.25, 1e-07, -3], "timeline": None}


def _write_result(path: Path) -> None:
    store.write(rc.RESULT, path, RESULT_PAYLOAD)


#: kind -> (writer, in-memory opener, Kind).
KINDS = {
    "trace": (_write_trace,
              lambda p: trace_store.open_trace(p, mapped=False),
              trace_store.TRACE),
    "graph": (_write_graph,
              lambda p: ingest.open_graph(p, mapped=False), ingest.GRAPH),
    "result": (_write_result,
               lambda p: store.read(rc.RESULT, p), rc.RESULT),
}


def _flip(data: bytes, i: int) -> bytes:
    return data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:]


def _resign(data: bytes, size: int, delta: int) -> bytes:
    """Shift the version by ``delta`` and re-sign the header: an intact
    file from another format version."""
    version = int.from_bytes(data[8:12], "little") + delta
    head = data[:8] + version.to_bytes(4, "little") + data[12:size - 32]
    return head + hashlib.sha256(head).digest() + data[size:]


#: damage -> (mangle(bytes, header_size), expected stale flag).
DAMAGES = {
    "bad_magic": (lambda b, h: b"XXXXXXXX" + b[8:], False),
    "header_byte": (lambda b, h: _flip(b, 20), False),
    "meta_byte": (lambda b, h: _flip(b, h + 1), False),
    "payload_byte": (lambda b, h: _flip(b, len(b) - 1), False),
    "truncated_header": (lambda b, h: b[:40], False),
    "truncated_payload": (lambda b, h: b[:-10], False),
    "padded": (lambda b, h: b + bytes(8), False),
    "newer_version": (lambda b, h: _resign(b, h, +1), False),
    "older_version": (lambda b, h: _resign(b, h, -1), True),
}


class TestDamage:
    @pytest.mark.parametrize("damage", DAMAGES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_damage(self, cache, kind, damage):
        write, open_, k = KINDS[kind]
        mangle, stale = DAMAGES[damage]
        path = cache / f"artifact.{kind}"
        write(path)
        open_(path)                             # the clean file opens
        path.write_bytes(mangle(path.read_bytes(), k.header.size))
        with pytest.raises(k.error) as info:
            open_(path)
        assert info.value.stale is stale
        # Stale files are deleted, everything else is quarantined.
        qdir = cache / "quarantine"
        assert store.discard(k, path, info.value, qdir) is stale
        assert not path.exists()
        assert len(list(qdir.glob("*.bad"))) == (0 if stale else 1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_large_padding_is_rejected_from_the_lead(self, cache,
                                                     monkeypatch, kind):
        """A file padded far past its size equation is rejected after
        reading no more than the largest header: a stray file of any
        size is never read whole."""
        write, open_, k = KINDS[kind]
        path = cache / f"artifact.{kind}"
        write(path)
        with open(path, "ab") as fh:
            fh.write(bytes(1 << 20))
        read = []
        real_read = os.read
        monkeypatch.setattr(os, "read", lambda fd, n: read.append(n)
                            or real_read(fd, n))
        with pytest.raises(k.error, match="padded") as info:
            open_(path)
        assert info.value.stale is False
        assert 0 < sum(read) <= store._MAX_HEADER


# -- byte identity ------------------------------------------------------------

class TestGolden:
    """The store formats predate the shared container; its files must
    stay byte-identical, so no trace is regenerated, no graph
    re-ingested and no cached result rewritten differently."""

    def test_trace_bytes(self, tmp_path):
        path = tmp_path / "toy.trace"
        trace_store.write_trace(toy_trace(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "639ceba6ce6e9cf0f054ed558b492251"
            "c27dc9e099393af211e9c141ac329773")

    @pytest.mark.parametrize("ext,symmetrize,want", [
        ("el", False, "488ef371313c86897504f6eb6283a30c"
                      "786dc4a21a28f08e5ab27416b7917960"),
        ("wel", False, "af5679be002acb3e740479ba09778ab0"
                       "a58ebcb9a2b31499d43559a8ab55a77e"),
        ("el", True, "27d85f3a3ff339212341910fe95ea288"
                     "8f30ce12bc59e9c255c951679863857c"),
    ], ids=["directed", "weighted", "symmetric"])
    def test_graph_bytes(self, cache, ext, symmetrize, want):
        path = ingest_toy(cache, ext, symmetrize)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want

    def test_result_bytes(self, tmp_path):
        key = "ab" * 32
        rc.ResultsCache(tmp_path).put(key, RESULT_PAYLOAD)
        path = tmp_path / "ab" / f"{key}.json"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "aa7d931ca2c4dccd47f090f74ad7bf3b"
            "1dbb0898fd3184c02b4c7685e0eddd35")


# -- container mechanics ------------------------------------------------------

class TestContainer:
    def test_sections_must_match_fields(self, tmp_path):
        with pytest.raises(ValueError, match="sections"):
            store.write(trace_store.TRACE, tmp_path / "t",
                        {"name": "x"}, (5, ACCESS_DTYPE.itemsize, 0),
                        [np.zeros(4, dtype=ACCESS_DTYPE)])
        assert list(tmp_path.iterdir()) == []

    def test_failed_atomic_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with store.atomic_write(path) as fh:
                fh.write(b"half")
                raise RuntimeError("writer died")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]

    def test_read_meta_survives_payload_damage(self, cache):
        path = ingest_toy(cache)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ingest.GraphStoreError):
            ingest.open_graph(path)
        assert store.read_meta(ingest.GRAPH, path)["source"] == "toy.el"
        assert store.read_meta(trace_store.TRACE, path) is None

    def test_large_result_reads_back_equal(self, tmp_path):
        """An entry far larger than a small first read (and than one
        checksum chunk) reads back whole."""
        payload = dict(RESULT_PAYLOAD, timeline=list(range(200_000)))
        key = "cd" * 32
        cache = rc.ResultsCache(tmp_path)
        cache.put(key, payload)
        assert (tmp_path / "cd" / f"{key}.json").stat().st_size > 1 << 20
        assert cache.get(key) == payload
        assert cache.hits == 1

    def test_payload_sha_is_the_payload_checksum(self, tmp_path):
        payload = {"b": [1, 2.5], "a": {"z": None}}
        path = tmp_path / "r"
        store.write(rc.RESULT, path, payload)
        _, _, sha = store.read_header(rc.RESULT, path)
        assert sha.hex() == rc.payload_checksum(payload)


# -- cache layout -----------------------------------------------------------

class TestCacheLayout:
    def test_empty_cache_dir_means_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert workloads.cache_dir() == Path(".repro_cache")
        assert rc.ResultsCache().root == Path(".repro_cache/results")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".repro_cache"]

    def test_checkout_tracks_no_cache_files(self):
        try:
            out = subprocess.run(["git", "ls-files"], cwd=REPO,
                                 capture_output=True, text=True,
                                 check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("not a git checkout")
        top = ("results/", "runs/", "graphs/", "telemetry/", "service/",
               "batch-kernel/", ".repro_cache/")
        tracked = [p for p in out.splitlines()
                   if p.startswith(top)
                   or ("/" not in p and p.endswith(".trace"))]
        assert tracked == []
