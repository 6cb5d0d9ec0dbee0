"""Interconnect fabrics: how bytes actually move between cards.

A fabric turns "send ``size`` bytes from card ``src`` to card ``dst``
starting at time ``t``" into occupied resources and a delivery time.
Resources (NIC ports, PCIe links, the shared LAN) are serially reusable:
each tracks the time it next becomes free.

* :class:`HydraSwitchFabric` — paper Fig. 4: every card's DTU talks to a
  cut-through switch; point-to-point and true broadcast; inter-server hops
  cross a second switch tier with higher latency.
* :class:`FabHostFabric` — paper Section II-B: cards are paired for direct
  P2P; everything else is FPGA → host (PCIe) → host (LAN) → FPGA (PCIe)
  with host store-and-forward, and the 10 Gb/s LAN is a shared medium.
"""

from __future__ import annotations

__all__ = ["HydraSwitchFabric", "FabHostFabric", "NullFabric", "build_fabric"]


class _Resource:
    """A serially-reusable link with bandwidth and per-use latency."""

    __slots__ = ("bandwidth", "latency", "free_at", "busy_total")

    def __init__(self, bandwidth, latency):
        self.bandwidth = bandwidth
        self.latency = latency
        self.free_at = 0.0
        self.busy_total = 0.0

    def occupy(self, size, earliest):
        """Occupy for a ``size``-byte transfer; returns (start, end)."""
        start = max(earliest, self.free_at)
        duration = self.latency + size / self.bandwidth
        end = start + duration
        self.free_at = end
        self.busy_total += duration
        return start, end


class NullFabric:
    """Single-card deployments: any transfer is a scheduling bug."""

    def reset(self):
        pass

    def unicast(self, src, dst, size, start):
        raise RuntimeError(
            "single-card cluster cannot transfer data between cards"
        )

    def broadcast(self, src, dsts, size, start):
        raise RuntimeError(
            "single-card cluster cannot broadcast data"
        )


class HydraSwitchFabric:
    """DTU + switch fabric with P2P and broadcast (paper Section IV-B)."""

    def __init__(self, cluster):
        self.cluster = cluster
        net = cluster.network
        bw = cluster.card.dtu_bandwidth
        if bw <= 0:
            raise ValueError(
                f"card {cluster.card.name!r} has no DTU; cannot build the "
                f"switch fabric"
            )
        n = cluster.total_cards
        self._tx = [_Resource(bw, 0.0) for _ in range(n)]
        self._rx = [_Resource(bw, 0.0) for _ in range(n)]
        self._intra_latency = net.intra_server_latency
        self._inter_latency = net.inter_server_latency
        # Switch latency per (src, dst) pair: the hot path indexes this
        # table instead of resolving both cards' servers per delivery.
        server = [cluster.server_of(card) for card in range(n)]
        self._latency = [
            [self._intra_latency if server[src] == server[dst]
             else self._inter_latency for dst in range(n)]
            for src in range(n)
        ]

    def reset(self):
        for r in self._tx + self._rx:
            r.free_at = 0.0
            r.busy_total = 0.0

    def unicast(self, src, dst, size, start):
        """Returns (sender_release, {dst: delivery_time})."""
        _, tx_end = self._tx[src].occupy(size, start)
        latency = self._latency[src][dst]
        _, rx_end = self._rx[dst].occupy(size, tx_end + latency - size
                                         / self._rx[dst].bandwidth)
        return tx_end, {dst: max(rx_end, tx_end + latency)}

    def broadcast(self, src, dsts, size, start):
        """One TX occupation; the switch replicates to every receiver."""
        _, tx_end = self._tx[src].occupy(size, start)
        latencies = self._latency[src]
        deliveries = {}
        for dst in dsts:
            latency = latencies[dst]
            _, rx_end = self._rx[dst].occupy(
                size, tx_end + latency - size / self._rx[dst].bandwidth
            )
            deliveries[dst] = max(rx_end, tx_end + latency)
        return tx_end, deliveries


class FabHostFabric:
    """FAB's host-mediated fabric (paper Sections II-B and V-D).

    Cards ``2i`` and ``2i+1`` share one host and form a directly-connected
    pair (FAB pairs FPGAs for P2P via network).  All other traffic is
    store-and-forward through the hosts: PCIe up → the source host's LAN
    TX port → the destination host's LAN RX port → PCIe down, plus host
    forwarding latency on each hop.  Each host's 10 Gb/s NIC is duplex,
    but replication for one-to-many patterns serializes on the source
    host's TX port — the architectural weakness paper Fig. 8 measures.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        net = cluster.network
        card = cluster.card
        n = cluster.total_cards
        hosts = (n + 1) // 2
        self._pair_link = [_Resource(net.intra_server_bandwidth,
                                     net.intra_server_latency)
                           for _ in range(hosts)]
        self._pcie = [_Resource(card.pcie_bandwidth, net.pcie_latency)
                      for _ in range(n)]
        self._lan_tx = [_Resource(net.lan_bandwidth, net.lan_latency)
                        for _ in range(hosts)]
        self._lan_rx = [_Resource(net.lan_bandwidth, 0.0)
                        for _ in range(hosts)]
        self._host_latency = net.host_forward_latency

    def reset(self):
        for r in (self._pair_link + self._pcie + self._lan_tx
                  + self._lan_rx):
            r.free_at = 0.0
            r.busy_total = 0.0

    @staticmethod
    def _host(card_index):
        return card_index // 2

    def _paired(self, src, dst):
        return self._host(src) == self._host(dst)

    def _via_hosts(self, src, dst, size, when):
        _, tx_end = self._lan_tx[self._host(src)].occupy(size, when)
        # Cut-through into the receiver NIC where possible.
        rx = self._lan_rx[self._host(dst)]
        _, rx_end = rx.occupy(size, tx_end - size / rx.bandwidth)
        _, down_end = self._pcie[dst].occupy(
            size, max(tx_end, rx_end) + self._host_latency
        )
        return down_end

    def unicast(self, src, dst, size, start):
        if self._paired(src, dst):
            _, end = self._pair_link[self._host(src)].occupy(size, start)
            return end, {dst: end}
        # FPGA -> host over src PCIe (sender releases after this hop).
        _, up_end = self._pcie[src].occupy(size, start)
        down_end = self._via_hosts(src, dst, size,
                                   up_end + self._host_latency)
        return up_end, {dst: down_end}

    def broadcast(self, src, dsts, size, start):
        """No hardware broadcast: the source host replicates per receiver."""
        _, up_end = self._pcie[src].occupy(size, start)
        deliveries = {}
        pair_peer = None
        for dst in dsts:
            if self._paired(src, dst):
                pair_peer = dst
                continue
            deliveries[dst] = self._via_hosts(
                src, dst, size, up_end + self._host_latency
            )
        if pair_peer is not None:
            _, end = self._pair_link[self._host(src)].occupy(size, start)
            deliveries[pair_peer] = end
            up_end = max(up_end, end)
        return up_end, deliveries


def build_fabric(cluster):
    """Instantiate the fabric named by ``cluster.fabric``."""
    if cluster.fabric == "none":
        return NullFabric()
    if cluster.fabric == "hydra-switch":
        return HydraSwitchFabric(cluster)
    if cluster.fabric == "fab-host":
        return FabHostFabric(cluster)
    raise ValueError(f"unknown fabric {cluster.fabric!r}")
