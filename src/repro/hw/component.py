"""Computing-component performance model.

Each component (GPU, big CPU cluster, LITTLE CPU cluster) is described by a
small set of parameters that drive a roofline-style per-layer latency model
(see :mod:`repro.hw.latency`) and a contention model (see
:mod:`repro.sim.contention`):

* ``peak_macs_per_s`` / ``type_efficiency`` — compute roof per layer type.
* ``macs_half`` / ``channel_sat`` — utilisation saturation: small kernels
  cannot fill wide engines, which is why light DNNs lose less than heavy
  ones when they leave the GPU (a key effect behind the paper's Fig. 2).
* ``dispatch_overhead_s`` — fixed per-layer launch cost; penalises
  branch-heavy architectures (Inception family) on the GPU.
* ``sharing_bias`` (κ) — how the component's scheduler divides time between
  co-resident pipeline stages: 0 = perfectly fair processor sharing (CFS on
  the CPU clusters), 1 = shares proportional to kernel service time
  (non-preemptive GPU command queues favour long-kernel contexts).
* ``interference_alpha/beta`` — co-residency demand inflation
  1 + α·(n−1)^β from cache/memory-system thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..zoo.layers import LayerType

__all__ = ["ComputeComponent", "default_efficiency"]


def default_efficiency(conv: float, dwconv: float, fc: float) -> dict[int, float]:
    """Build a per-layer-type efficiency table from three anchor values."""
    return {
        LayerType.CONV: conv,
        LayerType.GROUP_CONV: 0.8 * conv,
        LayerType.DWCONV: dwconv,
        LayerType.FC: fc,
        LayerType.DETECT_HEAD: 0.9 * conv,
    }


@dataclass(frozen=True)
class ComputeComponent:
    """A single computing component of the heterogeneous platform."""

    name: str
    kind: str                       # "gpu" | "big" | "little"
    peak_macs_per_s: float
    mem_bw_bytes_per_s: float
    elem_ops_per_s: float
    dispatch_overhead_s: float
    # Out of the hash, not of ==: platforms hash by value for tables_for.
    type_efficiency: dict[int, float] = field(hash=False)
    macs_half: float = 1e6          # 50 %-utilisation kernel size
    channel_sat: int = 16           # channels needed to fill vector lanes
    sharing_bias: float = 0.0       # κ: 0 fair PS .. 1 service-time biased
    interference_alpha: float = 0.2
    interference_beta: float = 1.0
    hol_blocking: float = 0.0       # head-of-line blocking fraction

    def __post_init__(self):
        if self.peak_macs_per_s <= 0 or self.mem_bw_bytes_per_s <= 0:
            raise ValueError(f"{self.name}: rates must be positive")
        if not 0.0 <= self.sharing_bias <= 1.0:
            raise ValueError(f"{self.name}: sharing_bias must be in [0, 1]")

    # ------------------------------------------------------------------
    def efficiency_for(self, op_type: int) -> float:
        """Fraction of peak MAC throughput achieved by ``op_type``."""
        return self.type_efficiency.get(op_type, 0.5)

    def utilisation(self, macs: int, in_channels: int, out_channels: int) -> float:
        """Kernel-size dependent utilisation in (0, 1].

        Combines a MAC-count saturation curve with a channel-width term:
        kernels with few MACs or narrow channel dimensions cannot fill the
        component's parallel lanes.
        """
        if macs <= 0:
            return 1.0
        size_u = macs / (macs + self.macs_half)
        ch = min(in_channels, out_channels) if min(in_channels, out_channels) > 0 \
            else max(in_channels, out_channels)
        ch_u = min(1.0, ch / self.channel_sat) if ch > 0 else 1.0
        # Geometric blend keeps either term from zeroing the estimate.
        return max(0.05, size_u * (0.5 + 0.5 * ch_u))

    def interference_factor(self, resident_stages: int) -> float:
        """Demand inflation when ``resident_stages`` share this component."""
        if resident_stages <= 1:
            return 1.0
        return 1.0 + self.interference_alpha * (resident_stages - 1) ** self.interference_beta

    def __repr__(self) -> str:
        return f"ComputeComponent({self.name!r}, {self.peak_macs_per_s/1e9:.0f} GMAC/s)"
