"""CSCV-M: the mask-compressed CSCV execution format.

CSCV-M removes the padding zeros from storage: each CSCVE keeps only its
real nonzeros plus an ``s_vvec``-bit occupancy mask, and the kernel
re-expands them at compute time (hardware ``vexpand`` on AVX-512, the
``soft-vexpand`` loop elsewhere).  The paper finds roughly 30% of the
memory traffic disappears (Section IV-E), which makes CSCV-M the
**bandwidth-bound champion** — best at high thread counts — at the price
of the expansion instruction overhead that hurts it at low thread counts.

Here each VxG slot's mask is a uint32 and each VxG carries an int64
packed offset, so the saving is smaller: at 256² (default parameters,
float32, 19.1M nnz) the kernel streams 129.3 MB against CSCV-Z's
152.8 MB, a 15% cut (M/Z = 0.85).  With little padding (small ``s_vvec``
and ``s_vxg``) CSCV-M can stream more than CSCV-Z.
"""

from __future__ import annotations

import numpy as np

from repro.core.format_z import CSCVMatrix
from repro.core.spmv import kernel_bytes, value_cols_m
from repro.sparse.matrix_base import register_format


@register_format
class CSCVMMatrix(CSCVMatrix):
    """CSCV with padding removed behind per-CSCVE masks (paper's CSCV-M)."""

    name = "cscv-m"
    variant = "m"

    def traffic_saving_vs_z(self) -> float:
        """Fraction of CSCV-Z's matrix traffic that CSCV-M avoids."""
        z_total = kernel_bytes(self.data, "z")["total"]
        m_total = self.memory_bytes()["total"]
        return 1.0 - m_total / z_total if z_total else 0.0

    def to_coo_triplets(self):
        d = self.data
        if d.nnz == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z, np.zeros(0, dtype=self.dtype)
        return self._rows().astype(np.int64), value_cols_m(d), d.packed
