"""Tests for the performance model: machine descriptions, profiles,
roofline predictions and the paper's qualitative shape claims."""

import numpy as np
import pytest

from repro import config
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.perfmodel import SKL, ZEN2, HOST, instruction_profile, predict_gflops
from repro.perfmodel.instructions import BW_EFFICIENCY
from repro.perfmodel.platform import Machine, machine_by_name
from repro.perfmodel.roofline import (
    bottleneck,
    crossover_threads,
    predict_time,
    scalability_curve,
)
from repro.sparse import CSRMatrix, CSCMatrix, MKLLikeCSR, SPC5Matrix


@pytest.fixture(scope="module")
def formats(fine_ct):
    coo, geom = fine_ct
    z = CSCVZMatrix.from_ct(coo, geom, CSCVParams(16, 16, 2))
    return {
        "csr": CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals),
        "csc": CSCMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals),
        "mkl-csr": MKLLikeCSR.from_coo(coo.shape, coo.rows, coo.cols, coo.vals),
        "spc5": SPC5Matrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals),
        "cscv-z": z,
        "cscv-m": CSCVMMatrix(z.data),
    }


class TestMachine:
    def test_lookup(self):
        assert machine_by_name("skl") is SKL
        assert machine_by_name("ZEN2") is ZEN2
        with pytest.raises(Exception):
            machine_by_name("m1")

    def test_paper_constants(self):
        assert SKL.peak_bw_gbs == pytest.approx(202.8)
        assert ZEN2.peak_bw_gbs == pytest.approx(236.43)
        assert SKL.simd_bits == 512 and ZEN2.simd_bits == 256

    def test_simd_lanes(self):
        assert SKL.simd_lanes(4) == 16 and SKL.simd_lanes(8) == 8
        assert ZEN2.simd_lanes(4) == 8

    def test_bandwidth_saturates(self):
        assert SKL.bandwidth(64) == pytest.approx(SKL.peak_bw_gbs)
        assert SKL.bandwidth(1) < SKL.peak_bw_gbs

    def test_validation(self):
        with pytest.raises(Exception):
            Machine("bad", cores=0, max_threads=0, simd_bits=256, ghz=1,
                    peak_bw_gbs=10, core_bw_gbs=5)


class TestProfiles:
    def test_all_formats_have_profiles(self, formats):
        for fmt in formats.values():
            p = instruction_profile(fmt, SKL)
            assert p.fma_lane_groups > 0
            assert p.cycles(SKL, fmt.dtype.itemsize) > 0

    def test_cscv_has_no_gathers(self, formats):
        assert instruction_profile(formats["cscv-z"], SKL).gather_elems == 0
        assert instruction_profile(formats["cscv-m"], SKL).gather_elems == 0

    def test_csr_gathers_per_nonzero(self, formats):
        p = instruction_profile(formats["csr"], SKL)
        assert p.gather_elems == formats["csr"].nnz

    def test_csc_also_scatters(self, formats):
        p = instruction_profile(formats["csc"], SKL)
        assert p.scatter_elems == formats["csc"].nnz

    def test_bw_efficiency_ordering(self):
        # streaming formats approach peak; gather formats do not
        assert BW_EFFICIENCY["cscv-z"] > BW_EFFICIENCY["csr"] > BW_EFFICIENCY["merge"]

    def test_unknown_format_rejected(self):
        from repro.errors import ValidationError

        class Fake:
            name = "fake"
            shape = (1, 1)
            nnz = 1
            dtype = np.dtype(np.float64)

        with pytest.raises(ValidationError):
            instruction_profile(Fake(), SKL)


class TestRoofline:
    def test_time_components_positive(self, formats):
        t = predict_time(formats["cscv-m"], SKL, 16)
        assert t["memory"] > 0 and t["compute"] > 0
        assert t["total"] == max(t["memory"], t["compute"])

    def test_gflops_increase_with_threads(self, formats):
        for fmt in formats.values():
            curve = scalability_curve(fmt, SKL, (1, 4, 16))
            assert curve[1] <= curve[4] <= curve[16]

    def test_bandwidth_roof_binds_eventually(self, formats):
        assert bottleneck(formats["mkl-csr"], SKL, 64) == "memory"

    def test_low_threads_latency_bound(self, formats):
        # paper Section II: few threads => instruction latency dominates
        assert bottleneck(formats["csr"], SKL, 1) in ("compute", "memory")
        t = predict_time(formats["csr"], SKL, 1)
        assert t["compute"] > 0.3 * t["total"]

    def test_invalid_threads(self, formats):
        with pytest.raises(ValueError):
            predict_gflops(formats["csr"], SKL, 0)


@pytest.fixture(scope="module")
def tuned_formats():
    """Formats on a finely-sampled matrix with the paper's Table III
    parameter triples per CSCV variant (the setting of Fig 10/Table IV)."""
    from repro.bench.datasets import get_dataset
    from repro.core.params import PAPER_TABLE3

    coo, geom = get_dataset("clinical-small").load(dtype=np.float32)
    z = CSCVZMatrix.from_ct(coo, geom, PAPER_TABLE3[("skl", "cscv-z", "single")])
    m_data = CSCVZMatrix.from_ct(coo, geom, PAPER_TABLE3[("skl", "cscv-m", "single")])
    return {
        "csr": CSRMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals),
        "csc": CSCMatrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals),
        "mkl-csr": MKLLikeCSR.from_coo(coo.shape, coo.rows, coo.cols, coo.vals),
        "spc5": SPC5Matrix.from_coo(coo.shape, coo.rows, coo.cols, coo.vals),
        "cscv-z": z,
        "cscv-m": CSCVMMatrix(m_data.data),
    }


class TestPaperShapeClaims:
    """The qualitative results the reproduction must deliver (Fig 10/Table IV)."""

    def test_cscv_z_wins_single_thread(self, tuned_formats):
        formats = tuned_formats
        z1 = predict_gflops(formats["cscv-z"], SKL, 1)
        for name in ("csr", "csc", "mkl-csr", "spc5", "cscv-m"):
            assert z1 > predict_gflops(formats[name], SKL, 1), name

    def test_cscv_m_wins_many_threads(self, tuned_formats):
        formats = tuned_formats
        m64 = predict_gflops(formats["cscv-m"], SKL, 64)
        for name in ("csr", "csc", "mkl-csr", "spc5", "cscv-z"):
            assert m64 > predict_gflops(formats[name], SKL, 64), name

    def test_z_to_m_crossover_exists(self, tuned_formats):
        formats = tuned_formats
        t = crossover_threads(formats["cscv-z"], formats["cscv-m"], SKL)
        assert t is not None and 2 <= t <= 64

    def test_zen2_crossover_later_than_skl(self, tuned_formats):
        formats = tuned_formats
        # paper: M overtakes at >=16T on SKL but only at 64T on Zen2
        t_skl = crossover_threads(formats["cscv-z"], formats["cscv-m"], SKL)
        t_zen2 = crossover_threads(formats["cscv-z"], formats["cscv-m"], ZEN2)
        assert t_zen2 is not None and t_skl is not None
        assert t_zen2 > t_skl

    def test_cscv_speedup_over_vendor_in_paper_band(self, tuned_formats):
        formats = tuned_formats
        # paper: 1.89x - 3.70x over MKL-CSR at full threads (single prec.)
        ratio = predict_gflops(formats["cscv-m"], SKL, 64) / predict_gflops(
            formats["mkl-csr"], SKL, 64
        )
        assert 1.5 < ratio < 4.5

    def test_zen2_single_core_z_faster_than_skl(self, tuned_formats):
        formats = tuned_formats
        # paper: Zen2 1T CSCV-Z ~2x the SKL value
        z_skl = predict_gflops(formats["cscv-z"], SKL, 1)
        z_zen2 = predict_gflops(formats["cscv-z"], ZEN2, 1)
        assert z_zen2 > 1.2 * z_skl

    def test_zen2_m_single_thread_halved(self, tuned_formats):
        # paper: soft-vexpand makes Zen2 1T CSCV-M ~half of SKL's; each
        # platform runs its own Table III triple
        from repro.bench.datasets import get_dataset
        from repro.core.params import PAPER_TABLE3

        coo, geom = get_dataset("clinical-small").load(dtype=np.float32)
        m_zen2_fmt = CSCVMMatrix.from_ct(
            coo, geom, PAPER_TABLE3[("zen2", "cscv-m", "single")]
        )
        m_skl = predict_gflops(tuned_formats["cscv-m"], SKL, 1)
        m_zen2 = predict_gflops(m_zen2_fmt, ZEN2, 1)
        assert m_zen2 < 0.8 * m_skl

    @pytest.mark.skipif(
        config.runtime.backend == "numpy",
        reason="HOST model is calibrated against the compiled kernels",
    )
    def test_host_model_within_factor_of_measured(self, tuned_formats):
        formats = tuned_formats
        # sanity: HOST model prediction within ~5x of measured wall clock
        from repro.bench.harness import measure_format

        fmt = formats["cscv-z"]
        rec = measure_format(fmt, iterations=5, max_seconds=1)
        model = predict_gflops(fmt, HOST, 1)
        assert model / rec.gflops < 6 and rec.gflops / model < 6
