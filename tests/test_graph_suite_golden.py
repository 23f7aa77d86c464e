"""Golden digests of every suite graph: graph construction's output is
pinned byte for byte.

Each digest is the sha256 of every CSR/CSC array of one suite graph
(field name, dtype and raw bytes, ``none`` for an absent weight array)
plus its ``symmetric`` flag, for the six graphs at the tiny, small and
medium tiers, weighted and not.  The traces, and so every simulated
result, are functions of these arrays: a construction change that moves
one byte shows up here before it shows up as a re-keyed result cache.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs.suite import GRAPH_SUITE

FIELDS = ("out_oa", "out_na", "in_oa", "in_na", "out_weights",
          "in_weights")

#: (graph, tier, weighted) -> digest.  The road generator always
#: attaches weights, so its two rows per tier agree.
GOLDEN = {
    ("web", "tiny", False): "f66fbc60f06843186c710182988db66f061d9c10e81eba9218def3dafef39fca",
    ("web", "tiny", True): "3e32f7044b8eb5d4469f51bf4e418d8f25f555f97b004c205c0c5417199e9772",
    ("road", "tiny", False): "6b62a593850d596f9301fdad9b53df0abe74128fcfd4b538c6030cec86836f84",
    ("road", "tiny", True): "6b62a593850d596f9301fdad9b53df0abe74128fcfd4b538c6030cec86836f84",
    ("twitter", "tiny", False): "f2e662a347992054536900f479744e0118810c08abfd2a0ddc381728ab07f75e",
    ("twitter", "tiny", True): "59ec8bb5b73e1f1951ccc113d16c4d8a6e73171b832851c0645f29d389954714",
    ("kron", "tiny", False): "c65d47f1a1f86bbd739ce14af75e31683422567b50a126963fb3f56c1a964010",
    ("kron", "tiny", True): "13f0ae5dc9020716a2d932c37eba475f04a737a9c9292e6a02bb2d2af51e7eef",
    ("urand", "tiny", False): "8f6d760870915fdcd08648addae46520847ef5f130674335e7f8956c6e9687fb",
    ("urand", "tiny", True): "f91f81fb22791a6f27f7786f46512fa32c3f884819e60812a4e0b203f8c767ed",
    ("friendster", "tiny", False): "c245590ae050a85c50e113117da678f42aa1b4ce56d9bdaaaaaf835518014da8",
    ("friendster", "tiny", True): "cc37bab2288db55a8a4bc834146e3834937e8ffe6742d0d3aa7f43529ed74b22",
    ("web", "small", False): "476f80c99b34e35108d62e38358ec38ceaa6324d7aa89cafd16a0f0014d69f8e",
    ("web", "small", True): "d0ce0105aa2bd65b91171bb27452499249b1de57e8a7fff999ff960febb7c3d0",
    ("road", "small", False): "4ea217322804d31707577710fcaa5428867ff7938bdbf2a6547a404c7f55cfa8",
    ("road", "small", True): "4ea217322804d31707577710fcaa5428867ff7938bdbf2a6547a404c7f55cfa8",
    ("twitter", "small", False): "7de0231c1167e96e23bf747e7057b00007b487c78250507fb5473cdc6f98b0c7",
    ("twitter", "small", True): "c4be85eadfce43b6ba347ae21245887a9bc172e93f59370a5be387e9c61ddc03",
    ("kron", "small", False): "c65d47f1a1f86bbd739ce14af75e31683422567b50a126963fb3f56c1a964010",
    ("kron", "small", True): "13f0ae5dc9020716a2d932c37eba475f04a737a9c9292e6a02bb2d2af51e7eef",
    ("urand", "small", False): "23bea93c168e3b7edcf208b3c1ef8fc60eedc8bca5e85f6e17cf8ef659daff2a",
    ("urand", "small", True): "fda11631c69f534d9536f13b9b84e8241a7bdcb784d5f7992c3f2d2c979228a8",
    ("friendster", "small", False): "b44faddf801a442fe354690035e537f436fd663edb79ce76d050a88954c81a5c",
    ("friendster", "small", True): "47f8ea249fa10a1c4ed27b134879eeeea8ce3a2d6df36514361c2da601b32977",
    ("web", "medium", False): "ee58d3ae003213351fe52e7cd67b91be2650604844a8c1bfbe64660dae2e2f07",
    ("web", "medium", True): "603eaec4901cbeaf8006a5725ca5017e4fe880c6c860b91a944be8a8bcaec495",
    ("road", "medium", False): "97491ee9070c3be0db66306a546044584cd7da817e0f2cb63424fc1553020ff8",
    ("road", "medium", True): "97491ee9070c3be0db66306a546044584cd7da817e0f2cb63424fc1553020ff8",
    ("twitter", "medium", False): "518d3a16a714bef0b3dd3b41eca8ef8b2dbf5fda812f96990a5bd0858f99a56a",
    ("twitter", "medium", True): "c7cd52fed4b9abe985d2dcb7fd80ed94746fcfde9f2e6ede253d1ffb04ac39d2",
    ("kron", "medium", False): "73d70bf73691977572706d7d5a9e8132e2050355916ffe98f93c52b1b8d23dcc",
    ("kron", "medium", True): "d81bfd4fa53a844e3f4509372e43629ca300d47cca24e862274d9d53bff11443",
    ("urand", "medium", False): "3d285cb3ecc899430c3c00af065d091cbbf4db3f20e6a9809eeb3bb0e73a17db",
    ("urand", "medium", True): "1912c523dd458c7fc095352bf588009a87eb494d76c6a566be787cbd59029df4",
    ("friendster", "medium", False): "2064b56f22299cf330b39c4d690201e5bb41a61cf49d71282b9a04509ada2ecf",
    ("friendster", "medium", True): "03346e98a000f8400ccff534d753ebe5fc1d7182db5ba7076815b401285e199e",
}


def graph_digest(g) -> str:
    h = hashlib.sha256()
    for f in FIELDS:
        a = getattr(g, f)
        h.update(f.encode())
        if a is None:
            h.update(b"none")
        else:
            a = np.ascontiguousarray(a)
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
    h.update(b"symmetric" if g.symmetric else b"directed")
    return h.hexdigest()


def test_golden_covers_the_whole_suite():
    assert {(name, tier, w) for name, tier, w in GOLDEN} == {
        (name, tier, w) for name in GRAPH_SUITE
        for tier in ("tiny", "small", "medium") for w in (False, True)}


@pytest.mark.parametrize("name,tier,weighted", sorted(GOLDEN),
                         ids=lambda v: str(v))
def test_suite_graph_is_byte_identical(name, tier, weighted):
    g = GRAPH_SUITE[name].build(tier, weighted)
    assert graph_digest(g) == GOLDEN[(name, tier, weighted)]
