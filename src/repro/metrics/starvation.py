"""The starvation threshold.

The paper declares a DNN starved when its measured potential throughput P
is 0 — i.e. it makes no observable progress on the board over the
observation window.  The analytical solver returns exact positive rates, so
we use the documented resolution threshold ``STARVATION_EPSILON``: a DNN
with P below 2 % of its ideal throughput would render as the zero bin of
the paper's Fig. 7 histogram.
"""

from __future__ import annotations

__all__ = ["STARVATION_EPSILON"]

#: P below this fraction of ideal counts as starved (measurement resolution).
STARVATION_EPSILON = 0.02
