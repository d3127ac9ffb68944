"""Network link models.

A :class:`Link` charges fixed per-message latency (driver + NIC +
propagation) plus serialization time at the nominal bandwidth.  The
paper's two links are both "100 Mb/s", but the 1993-era Fore ESA-200
ATM adapter has far higher per-message latency than the 1997 Fast
Ethernet NIC — which is why the paper's IPX round trips start so much
higher (Table 2).
"""


class Link:
    """Point-to-point link with per-message latency + serialization."""

    def __init__(self, name, latency_s, bandwidth_bps, per_byte_overhead=0.0):
        self.name = name
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        #: extra seconds per payload byte (SAR / checksum overheads)
        self.per_byte_overhead = per_byte_overhead

    def transfer_time(self, size_bytes):
        """One-way time for a message of ``size_bytes``."""
        serialization = size_bytes * 8 / self.bandwidth_bps
        return self.latency_s + serialization + (
            size_bytes * self.per_byte_overhead
        )

    def __repr__(self):
        return (
            f"Link({self.name!r}, {self.latency_s * 1e6:.0f}us,"
            f" {self.bandwidth_bps / 1e6:.0f}Mb/s)"
        )
