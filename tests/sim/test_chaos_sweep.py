"""The session layer's measure in tier-1.

One chaos seed (``sc5_chaos`` in ``tests/integration``) cannot show a
regression of the retransmission schedule: its timings move with the
fabric's random stream.  The 40-seed sweep of
``benchmarks/bench_chaos_recovery.py`` can, so tier-1 runs it untimed
(about 0.1 s per arm) and holds its means to the same ceilings, on the
unit-latency fabric and on the jittered one.
"""

import pytest

from benchmarks.bench_chaos_recovery import (
    JITTER,
    JITTERED_CEILINGS,
    SWEEP_CEILINGS,
    chaos_sweep,
    under_ceilings,
)


@pytest.mark.parametrize("drop", sorted(SWEEP_CEILINGS))
def test_chaos_sweep_means_stay_under_their_ceilings(drop):
    means = chaos_sweep(drop)
    assert under_ceilings(means, SWEEP_CEILINGS[drop]), (
        means, SWEEP_CEILINGS[drop]
    )


def test_jittered_chaos_sweep_means_stay_under_their_ceilings():
    means = chaos_sweep(0.3, JITTER)
    assert under_ceilings(means, JITTERED_CEILINGS), (means, JITTERED_CEILINGS)
