"""Per-format instruction profiles for the performance model.

For one SpMV pass, count the work classes that dominate SpMV kernels:

* ``fma_lane_groups``   — vector FMA issues (one per SIMD register of work)
* ``vector_mem_ops``    — vector loads/stores of contiguous data
* ``gather_elems``      — elements fetched through an index (x or y gather)
* ``scatter_elems``     — elements stored through an index
* ``expand_ops``        — mask-expansion vector operations (vexpand /
  soft-vexpand, the CSCV-M / SPC5 cost)
* ``scalar_ops``        — scalar bookkeeping (loop/row/block overhead)

The counts are derived from each format object's actual arrays, so padding
ratios, block counts and map sizes all enter with their true values; only
the *costs* of the classes are machine parameters
(:class:`repro.perfmodel.platform.Machine`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.sparse.matrix_base import SpMVFormat


#: Achieved fraction of peak bandwidth per format when bandwidth-bound.
#: Calibrated against the paper's Fig 11 effective-bandwidth-usage data:
#: streaming formats (CSCV, SPC5) approach the MLC peak (the paper reports
#: CSCV-Z at 98.4% of M_PBw); gather/scatter formats waste cache lines on
#: random x/y access and land much lower.
BW_EFFICIENCY = {
    "csr": 0.65,
    "mkl-csr": 0.65,
    "merge": 0.40,
    "csc": 0.50,
    "mkl-csc": 0.50,
    "ell": 0.55,
    "esb": 0.45,
    "csr5": 0.65,
    "cvr": 0.50,
    "vhcc": 0.75,
    "spc5": 0.70,
    "cscv-z": 0.95,
    "cscv-m": 0.95,
    "coo": 0.40,
    "csc-vec": 0.50,
    "hyb": 0.55,
    "bsr": 0.70,
}


@dataclass(frozen=True)
class InstructionProfile:
    """Instruction-class counts for one SpMV pass."""

    fma_lane_groups: float
    vector_mem_ops: float
    gather_elems: float
    scatter_elems: float
    expand_ops: float
    scalar_ops: float
    #: achieved fraction of peak bandwidth when bandwidth-bound
    bw_efficiency: float = 0.6

    def cycles(self, machine, itemsize: int) -> float:
        """Estimated core-cycles for one SpMV pass on *machine*.

        FMA issues dual-port; contiguous vector memory ops dual-port;
        the slower of the two pipelines binds.  Gathers/scatters cost
        ``gather_cost`` cycles per element, expansions ``expand_cost``
        per vector op, scalar bookkeeping one cycle per op.
        """
        lanes = machine.simd_lanes(itemsize)
        pipelined = max(
            self.fma_lane_groups / machine.fma_ports,
            self.vector_mem_ops / 2.0,
        )
        return (
            pipelined
            + self.gather_elems * machine.gather_cost / 2.0
            + self.scatter_elems * machine.gather_cost / 2.0
            + self.expand_ops * machine.expand_cost
            + self.scalar_ops
        ) / 1.0 + 0.0 * lanes


def _lanes(machine, fmt) -> int:
    return machine.simd_lanes(fmt.dtype.itemsize)


def instruction_profile(fmt: SpMVFormat, machine) -> InstructionProfile:
    """Build the instruction profile of *fmt* for *machine*'s SIMD width."""
    prof = _raw_profile(fmt, machine)
    eff = BW_EFFICIENCY.get(fmt.name, 0.6)
    return InstructionProfile(
        fma_lane_groups=prof.fma_lane_groups,
        vector_mem_ops=prof.vector_mem_ops,
        gather_elems=prof.gather_elems,
        scatter_elems=prof.scatter_elems,
        expand_ops=prof.expand_ops,
        scalar_ops=prof.scalar_ops,
        bw_efficiency=eff,
    )


def _raw_profile(fmt: SpMVFormat, machine) -> InstructionProfile:
    name = fmt.name
    m, n = fmt.shape
    nnz = fmt.nnz
    lanes = _lanes(machine, fmt)

    if name in ("csr", "mkl-csr", "merge"):
        # gather x per element; vector loads of vals+cols; row overhead
        extra = 0.0
        if name == "merge":
            extra = 4.0 * getattr(fmt, "num_chunks", 64)  # chunk fixups
        return InstructionProfile(
            fma_lane_groups=nnz / lanes,
            vector_mem_ops=2.0 * nnz / lanes,
            gather_elems=float(nnz),
            scatter_elems=0.0,
            expand_ops=0.0,
            scalar_ops=float(m) + extra,
        )
    if name == "csc-vec":
        # Algorithm 2: padded segment FMAs plus gather+scatter per element
        slots = float(fmt.padded_slots())
        return InstructionProfile(
            fma_lane_groups=slots / lanes,
            vector_mem_ops=2.0 * slots / lanes,
            gather_elems=float(nnz),
            scatter_elems=float(nnz),
            expand_ops=0.0,
            scalar_ops=float(n) + float(fmt.num_segments),
        )
    if name in ("csc", "mkl-csc"):
        # y gathered *and* scattered per element (paper Algorithm 2)
        return InstructionProfile(
            fma_lane_groups=nnz / lanes,
            vector_mem_ops=2.0 * nnz / lanes,
            gather_elems=float(nnz),
            scatter_elems=float(nnz),
            expand_ops=0.0,
            scalar_ops=float(n),
        )
    if name == "ell":
        slots = float(fmt.vals.size)
        return InstructionProfile(
            fma_lane_groups=slots / lanes,
            vector_mem_ops=2.0 * slots / lanes,
            gather_elems=slots,
            scatter_elems=0.0,
            expand_ops=0.0,
            scalar_ops=float(m),
        )
    if name == "hyb":
        ell_slots = float(fmt.ell_vals.size)
        tail = float(fmt.coo_nnz)
        return InstructionProfile(
            fma_lane_groups=(ell_slots + tail) / lanes,
            vector_mem_ops=2.0 * (ell_slots + tail) / lanes,
            gather_elems=ell_slots + tail,
            scatter_elems=tail,  # COO tail scatters into y
            expand_ops=0.0,
            scalar_ops=float(m),
        )
    if name == "bsr":
        slots = float(fmt.blocks.size)
        return InstructionProfile(
            fma_lane_groups=slots / lanes,
            vector_mem_ops=2.0 * slots / lanes,
            gather_elems=0.0,  # x tiles are contiguous slices
            scatter_elems=0.0,
            expand_ops=0.0,
            scalar_ops=float(fmt.num_blocks) + float(m),
        )
    if name == "esb":
        slots = float(nnz * (1.0 + fmt.padding_ratio()))
        return InstructionProfile(
            fma_lane_groups=slots / lanes,
            vector_mem_ops=2.0 * slots / lanes,
            gather_elems=slots,
            scatter_elems=float(m),  # permutation write-back
            expand_ops=0.0,
            scalar_ops=float(len(fmt.slices)) * 4.0,
        )
    if name == "csr5":
        padded = float(fmt.tile_vals.size)
        return InstructionProfile(
            fma_lane_groups=padded / lanes,
            vector_mem_ops=2.0 * padded / lanes,
            gather_elems=float(nnz),
            scatter_elems=0.0,
            # segmented sum: ~2 extra vector ops per tile column
            expand_ops=0.0,
            scalar_ops=float(m) + 2.0 * padded / lanes,
        )
    if name == "cvr":
        slots = float(fmt.lane_vals.size)
        switches = float(
            np.count_nonzero(np.diff(fmt.lane_rows, axis=0)) + fmt.num_lanes
        )
        return InstructionProfile(
            fma_lane_groups=slots / lanes,
            vector_mem_ops=2.0 * slots / lanes,
            gather_elems=slots,
            scatter_elems=switches,
            expand_ops=0.0,
            scalar_ops=switches,
        )
    if name == "vhcc":
        return InstructionProfile(
            fma_lane_groups=nnz / lanes,
            vector_mem_ops=2.0 * nnz / lanes,
            gather_elems=float(nnz),
            scatter_elems=0.0,
            scalar_ops=float(m) + 2.0 * nnz / lanes,  # segmented scan
            expand_ops=0.0,
        )
    if name == "spc5":
        blocks = float(fmt.num_blocks)
        width_groups = np.ceil(fmt.width / lanes)
        return InstructionProfile(
            fma_lane_groups=blocks * width_groups,
            vector_mem_ops=2.0 * blocks * width_groups,
            gather_elems=0.0,
            scatter_elems=0.0,
            expand_ops=blocks * width_groups,
            scalar_ops=blocks + float(m),
        )
    if name == "cscv-z":
        d = fmt.data
        slots = float(d.stored_slots)
        map_slots = float(d.ymap.size)
        return InstructionProfile(
            fma_lane_groups=slots / lanes,
            # load values + load ytilde + store ytilde
            vector_mem_ops=3.0 * slots / lanes,
            gather_elems=0.0,
            scatter_elems=map_slots,  # the per-block reorder pass
            expand_ops=0.0,
            scalar_ops=float(d.num_vxg) + 2.0 * d.num_blocks,
        )
    if name == "cscv-m":
        d = fmt.data
        slots = float(d.stored_slots)
        map_slots = float(d.ymap.size)
        s_vvec_groups = np.ceil(d.params.s_vvec / lanes)
        return InstructionProfile(
            fma_lane_groups=slots / lanes,
            vector_mem_ops=3.0 * slots / lanes,
            gather_elems=0.0,
            scatter_elems=map_slots,
            expand_ops=float(d.num_cscve) * s_vvec_groups,
            scalar_ops=float(d.num_vxg) + 2.0 * d.num_blocks,
        )
    raise ValidationError(f"no instruction profile for format {name!r}")

