"""Fig. 3 — probability of a DRAM access per PC-local stride bucket,
characterized on cc.friendster.

Paper result: 11.6% for strides in (10^0, 10^1], rising steeply with
stride (97.6% at (10^5, 10^6]).  Our scaled surrogate compresses the
stride range (~10^4 blocks max), but the monotone small-vs-large split
must hold.
"""

import math

from conftest import run_figure_once


def test_fig3_stride_dram(benchmark, show, bench_length):
    res = run_figure_once(benchmark, show, "fig3", length=bench_length)
    probs = res.dram_probability
    counts = res.access_counts
    # Stride-0/1 accesses rarely reach DRAM ...
    assert probs[0] < 0.15
    # ... while populated large-stride buckets often do.
    large = [p for p, c in zip(probs[2:], counts[2:])
             if c > 100 and not math.isnan(p)]
    assert large, "no populated large-stride buckets"
    assert max(large) > 4 * max(probs[0], 0.01)
