"""The session layer's measure in tier-1.

One chaos seed (``sc5_chaos`` in ``tests/integration``) cannot show a
regression of the retransmission schedule: its timings move with the
fabric's random stream.  The 40-seed sweep of
``benchmarks/bench_chaos_recovery.py`` can, so tier-1 runs it untimed
(about 0.1 s per drop rate) and holds its means to the same ceilings.
"""

import pytest

from benchmarks.bench_chaos_recovery import (
    SWEEP_CEILINGS,
    chaos_sweep,
    under_ceilings,
)


@pytest.mark.parametrize("drop", sorted(SWEEP_CEILINGS))
def test_chaos_sweep_means_stay_under_their_ceilings(drop):
    means = chaos_sweep(drop)
    assert under_ceilings(drop, means), (means, SWEEP_CEILINGS[drop])
