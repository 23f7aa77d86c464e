"""Golden digests of workload traces: trace generation's output is
pinned byte for byte.

Each digest is the sha256 of one workload's ``trace.accesses`` records,
generated without the trace cache: every one of the 36 single-core
workloads and the 18 post-paper ones (``rw``/``gs``/``dyn``) at the
tiny tier and 4,000 accesses, and the six ``QUICK_WORKLOADS`` at
20,000 accesses, a window deep enough to cover several CC hooking
rounds and BFS levels.  A tracer, kernel or graph
change that moves one record shows up here before it shows up as a
re-keyed result cache; a deliberate change must also bump
``TRACE_FORMAT_VERSION``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments.figures import QUICK_WORKLOADS
from repro.experiments.workloads import (ALL_WORKLOADS,
                                         TRACE_FORMAT_VERSION,
                                         workload_trace)

#: (workload, accesses) -> sha256 of ``trace.accesses`` at the tiny tier.
GOLDEN = {
    ("bc.web", 4000): "41cbb24109b0889bffb910ac588818959ab285e985737c871c6be7d394f6d58d",
    ("bc.road", 4000): "205ca9703bb86eb40ed6118b4c4d9ad5544a12be3d06f252dd54d225f5952a0e",
    ("bc.twitter", 4000): "c42f23aaa45c71980173118ed366b8d570722c06e63d325918c28d0059954e1b",
    ("bc.kron", 4000): "e294946e70ce213bbccfae2b9956b2821fe7097a3901afd1d0e7b295bbe2e710",
    ("bc.urand", 4000): "226697b9cc867ede10d28e4cb61f2886e0e3d11e336b58e1c5d6ac31206f2489",
    ("bc.friendster", 4000): "8a72127f08a82b66fbca8986dc520e4d8f0341c7794643daed8ec2fff881b5d2",
    ("bfs.web", 4000): "38964e4b62d80cd2ce608336ce24568a2c9da68fe81a6114b347878b4c584b5b",
    ("bfs.road", 4000): "0f03516bf649ddb6eaf9390fbe07d833a0b365c2ace4f8816e5593451499a138",
    ("bfs.twitter", 4000): "ca7b2ff0047243c19af00936dcb5986ec49f998c8da4e36c35e51e9ce70f6847",
    ("bfs.kron", 4000): "373ffbbddf8f4ed85b7824c80d97fee97ac9860873dd67d45d00084c328676ce",
    ("bfs.urand", 4000): "45f37d4480290a84e2ba9a2c3ce9ed7db9fb49af32857320571acef45245e2ee",
    ("bfs.friendster", 4000): "6e342478d006c5fae41df8d49cf3dbbeb95746a6bb3a3db7838c52ce55e68caf",
    ("cc.web", 4000): "74a33dc1cc4f817aa782f158d235e5af9bb2c36149ad36e91989ee3068ecd84a",
    ("cc.road", 4000): "c426d112fe40b99099d12aedf6effc9c0807930e8176b65a73e55507173c54ff",
    ("cc.twitter", 4000): "c9c11c4c74bfe140bf3b500a7ef1bb148957d5cdd00b9cf6b86f68325b066b15",
    ("cc.kron", 4000): "4032695850c206ea9c98f55a6850fcf88daac8c7e163d407178b28427c03affd",
    ("cc.urand", 4000): "6237c372085a64737d4e14a45d6afcb92bfdc315f3544d5241f845935c3aaed6",
    ("cc.friendster", 4000): "920c7783d03e161137049ee6131cbcfe8750809623199e4305b4978bda12afcc",
    ("pr.web", 4000): "d69bce658eaa4d0087faecff118f8afd320876e338faa5c78e016be13b1cc9a6",
    ("pr.road", 4000): "261ed490c08c938995a744d0ec401864be0d855c886132ad0a14d962addf0f10",
    ("pr.twitter", 4000): "76741b5c76f3103a5298b87d984e6a67c1cf93a93c1a15525250bfe8bedcafd7",
    ("pr.kron", 4000): "134f62cf33ff7a818c437d9e7fd1d9944de0f1f601dd0165480ff1d3c088908c",
    ("pr.urand", 4000): "c00998005cf4075911f5920d194f4d4ae43c8be0d0f9882e45f6e57e57aff75a",
    ("pr.friendster", 4000): "c1e97a928cc0589433be208c74ef4d0dc2cbced05dadcda8ae4eaa83d76597be",
    ("tc.web", 4000): "75b67ab17a38f80c8f6c2f5449a313e1b7e163b403edddbad4b80f602c87678b",
    ("tc.road", 4000): "388bb5292920d1fdf2bbb02c978d8eb602e847ba093d718a4828fcfa4421b94b",
    ("tc.twitter", 4000): "76a5eb44fca4ff108ef22f1b055e69afae424a84c01a77e561d02f341a762113",
    ("tc.kron", 4000): "c01a72762ab55ac9791600e018c41cee4c621e301bb9088bea558adea04d705a",
    ("tc.urand", 4000): "88d3673cc01ec1747ca69f1b4f80c72511129656f350378848eece9599360661",
    ("tc.friendster", 4000): "e5738a33abf80aa23e79106c302e78b6f29e66046bd966ec5794d593791c80bd",
    ("sssp.web", 4000): "6a1b93cf4b21f669d6384b5b1922fe4bd582439a91de7193cc904186ddfb2939",
    ("sssp.road", 4000): "893f81eae7d6988d1ee07a424d6710466e22a6865ff9725cabff3cd040278c31",
    ("sssp.twitter", 4000): "43fc39cb38e7042bd53cccb03b90a214d1249ad3f85e64795d889b068f258d80",
    ("sssp.kron", 4000): "c064b43394fdbab3bfa84342a927ecc1ca76d1e74d0a6fbf9904edca26637037",
    ("sssp.urand", 4000): "8321f1d9ee979992556f7dd2aed1b9dfff779180a4e0bd5b5d07bdf2aa8c5869",
    ("sssp.friendster", 4000): "4b38db1edd49053a28c6eaf513f6e2152d44758cf067089aaccb5a34b71de432",
    ("pr.kron", 20000): "47afe0ee9ae6fd859b9c981e2be8630d2c9c15230f44234e68a75daa6d7393a3",
    ("cc.friendster", 20000): "a5ad1e5b6d235619fc3407c1d7206289638548dcad3bccfbc028954773f53080",
    ("bfs.urand", 20000): "c6c02aa3316a5d4a59541a1cd70fc35fbcbbf371a0d6be1a7919278649a81a20",
    ("sssp.road", 20000): "6bc2c96f64e35f5c59a7f8c94d3e223d4893963b8209d2aeecbab2606f855dcd",
    ("bc.twitter", 20000): "6de0ec05efd6b1ee4d5cf83311b6b3c6fd2885ffc1125921a7fa2f43f4f0f8cd",
    ("tc.web", 20000): "ce6646b04a34adf5fdf14e7bea8e11027757a89e12c51547022af938a2d44245",
    ("rw.web", 4000): "c3013b6fd5aace51fff0a471d6426b2abdb4bc219381b65f65b2fe442e248ba9",
    ("rw.road", 4000): "8fb9b050e56cba37c271491e713927ca23c1eb18b16aa1cd950d1bc68c55ec5b",
    ("rw.twitter", 4000): "6de195fbd8fe56c7b9d8be49ffe1dce3aea6e9430a6990b2381a67606b910f2a",
    ("rw.kron", 4000): "2f8c7c969f1c85fd70fdf5d3c2c76f4b8c56e705b5557c15ce40e2c6c8e47c58",
    ("rw.urand", 4000): "40f9ef15d614212b11e792d9687946fb721aae18db81d005b294c892086ede25",
    ("rw.friendster", 4000): "e1f08ba2b5ca043390253a32b4021054af386faf0161de5b4f7dd13535cb9a9d",
    ("gs.web", 4000): "2b9087f0790f15877fc811cded7e2485ca75b06ca7e087a18e12c5dc2fb118c3",
    ("gs.road", 4000): "4bdbb4d0d58ea37fe7d01ae339700fcc3a27e657f1a4f24cfcb3e5fd66e2e4f2",
    ("gs.twitter", 4000): "6c74ca558edeb9b14ed261fac5563074217bb6e001d0b02b87ddd36ce2c32222",
    ("gs.kron", 4000): "82b5f817750355bf72e44d63260879d0af1b39afe305f14a8e9f978e9234e3e4",
    ("gs.urand", 4000): "b5751ac6f99878093b8d02135ae178f245af1afecf7b8350cb0fcfbc519b612f",
    ("gs.friendster", 4000): "65f1cf501b5e8d570e6c45fc29aed657b2ab823df8789085a22e6796021a07a0",
    ("dyn.web", 4000): "ce65efbb08077a8c9214965ac60a597e4cb4f5cd86fb8f5f22ff0aac44aa1659",
    ("dyn.road", 4000): "3ba018fc656cf87b09b2f7d3376ad5e2710f569710b27bc0b4a39c7147b4ae26",
    ("dyn.twitter", 4000): "5a9ee57482046d5f8521cca236ddc87b096f9737fbc1cbf960a5fbb75d096571",
    ("dyn.kron", 4000): "c2e243d02bf166ff79593032d5294ac03a0a71ce7eb22d6cd7e95e85a8662bd4",
    ("dyn.urand", 4000): "9ac7ff09c3871b4e2da075985d22c10764444f14cecce5204c7d3e71502ebfe1",
    ("dyn.friendster", 4000): "e6558d0d555852766946fe6b9e639ab0d675ac338c72a8af350746fd636e0e3f",
}


def test_golden_covers_every_workload():
    assert set(GOLDEN) == {(wl.name, 4000) for wl in ALL_WORKLOADS} | {
        (name, 20000) for name in QUICK_WORKLOADS}
    assert TRACE_FORMAT_VERSION == 8


@pytest.mark.parametrize("name,length", list(GOLDEN),
                         ids=lambda v: str(v))
def test_trace_is_byte_identical(name, length):
    trace = workload_trace(name, tier="tiny", length=length,
                           use_cache=False)
    digest = hashlib.sha256(
        np.ascontiguousarray(trace.accesses).tobytes()).hexdigest()
    assert digest == GOLDEN[(name, length)]
