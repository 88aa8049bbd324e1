"""Tests for the BP/WP/PP partitioning strategies (Sections 3.2, 4.2)."""

import pytest

from repro.core.structures import (
    branch_prediction_table,
    core_structures,
    issue_queue,
    register_file,
    store_queue,
)
from repro.partition.strategies import (
    best_asymmetric_bp,
    best_asymmetric_pp,
    best_asymmetric_wp,
    bit_partition,
    evaluate_2d,
    port_partition,
    reduction_report,
    word_partition,
)
from repro.sram.array import solve_2d
from repro.tech.process import (
    stack_2d,
    stack_m3d_hetero,
    stack_m3d_iso,
    stack_tsv3d,
)


@pytest.fixture(scope="module")
def iso():
    return stack_m3d_iso()


@pytest.fixture(scope="module")
def hetero():
    return stack_m3d_hetero()


@pytest.fixture(scope="module")
def tsv():
    return stack_tsv3d()


@pytest.fixture(scope="module")
def rf_base():
    return evaluate_2d(register_file())


class TestBitPartitioning:
    def test_improves_rf_latency(self, iso, rf_base):
        result = bit_partition(register_file(), iso)
        report = reduction_report(rf_base, result)
        assert report.latency_pct > 5.0

    def test_reduces_footprint(self, iso, rf_base):
        result = bit_partition(register_file(), iso)
        report = reduction_report(rf_base, result)
        assert 20.0 < report.footprint_pct < 55.0

    def test_via_count_one_per_word(self, iso):
        geometry = register_file()
        result = bit_partition(geometry, iso)
        assert result.via_count >= geometry.words

    def test_m3d_beats_tsv(self, iso, tsv, rf_base):
        # Table 3: "M3D performs better than TSV3D in all metrics."
        m3d = reduction_report(rf_base, bit_partition(register_file(), iso))
        tsv3d = reduction_report(rf_base, bit_partition(register_file(), tsv))
        assert m3d.latency_pct >= tsv3d.latency_pct
        assert m3d.footprint_pct >= tsv3d.footprint_pct

    def test_rejects_2d_stack(self):
        with pytest.raises(ValueError):
            bit_partition(register_file(), stack_2d())

    def test_rejects_extreme_fraction(self, iso):
        with pytest.raises(ValueError):
            bit_partition(register_file(), iso, bottom_fraction=0.95)


class TestWordPartitioning:
    def test_improves_bpt(self, iso):
        geometry = branch_prediction_table()
        base = evaluate_2d(geometry)
        report = reduction_report(base, word_partition(geometry, iso))
        assert report.latency_pct > 5.0
        assert report.energy_pct > 10.0

    def test_wp_energy_beats_bp_on_sram(self, iso):
        # Table 3 vs 4: WP saves more energy than BP (only the addressed
        # layer's bitlines swing).
        geometry = branch_prediction_table()
        base = evaluate_2d(geometry)
        wp = reduction_report(base, word_partition(geometry, iso))
        bp = reduction_report(base, bit_partition(geometry, iso))
        assert wp.energy_pct > bp.energy_pct

    def test_via_count_one_per_bit(self, iso):
        geometry = branch_prediction_table()
        result = word_partition(geometry, iso)
        assert result.via_count == geometry.bits * geometry.banks


class TestPortPartitioning:
    def test_best_for_rf(self, iso, rf_base):
        # Table 6: PP wins the multiported register file.
        geometry = register_file()
        pp = reduction_report(rf_base, port_partition(geometry, iso))
        bp = reduction_report(rf_base, bit_partition(geometry, iso))
        wp = reduction_report(rf_base, word_partition(geometry, iso))
        assert pp.latency_pct > bp.latency_pct
        assert pp.latency_pct > wp.latency_pct

    def test_rf_gains_match_paper_band(self, iso, rf_base):
        # Table 5/6: RF PP ~41% latency, ~38% energy, ~56% footprint.
        report = reduction_report(rf_base, port_partition(register_file(), iso))
        assert 30.0 < report.latency_pct < 55.0
        assert 28.0 < report.energy_pct < 55.0
        assert 45.0 < report.footprint_pct < 75.0

    def test_impossible_for_single_ported(self, iso):
        with pytest.raises(ValueError):
            port_partition(branch_prediction_table(), iso)

    def test_tsv_pp_catastrophic(self, tsv, rf_base):
        # Table 5: TSVs are too thick for per-cell vias.
        report = reduction_report(rf_base, port_partition(register_file(), tsv))
        assert report.footprint_pct < -50.0
        assert report.latency_pct < 0.0

    def test_two_vias_per_cell(self, iso):
        geometry = register_file()
        result = port_partition(geometry, iso)
        assert result.via_count == 2 * geometry.words * geometry.bits

    def test_port_split_recorded(self, iso):
        result = port_partition(register_file(), iso)
        assert result.bottom_ports + result.top_ports == register_file().ports

    def test_invalid_split_rejected(self, iso):
        with pytest.raises(ValueError):
            port_partition(register_file(), iso, bottom_ports=18)


class TestHeteroAsymmetric:
    def test_asym_pp_recovers_most_of_iso(self, iso, hetero, rf_base):
        # Table 8 vs 6: hetero PP is only slightly below iso PP.
        iso_report = reduction_report(
            rf_base, port_partition(register_file(), iso)
        )
        het_report = reduction_report(
            rf_base, best_asymmetric_pp(register_file(), hetero)
        )
        assert het_report.latency_pct > iso_report.latency_pct - 8.0

    def test_asym_bp_not_worse_than_naive_split(self, hetero):
        geometry = branch_prediction_table()
        base = evaluate_2d(geometry)
        naive = reduction_report(
            base, bit_partition(geometry, hetero, bottom_fraction=0.5)
        )
        best = reduction_report(base, best_asymmetric_bp(geometry, hetero))
        assert best.latency_pct >= naive.latency_pct - 1e-6

    def test_asym_wp_not_worse_than_naive_split(self, hetero):
        geometry = branch_prediction_table()
        base = evaluate_2d(geometry)
        naive = reduction_report(
            base, word_partition(geometry, hetero, bottom_fraction=0.5)
        )
        best = reduction_report(base, best_asymmetric_wp(geometry, hetero))
        assert best.latency_pct >= naive.latency_pct - 1e-6

    def test_hetero_penalty_hurts_when_uncompensated(self, iso, hetero):
        geometry = branch_prediction_table()
        iso_result = word_partition(geometry, iso, top_width_mult=1.0)
        het_result = word_partition(geometry, hetero, top_width_mult=1.0)
        assert het_result.metrics.access_time >= iso_result.metrics.access_time

    def test_asym_search_explores_upsizing(self, hetero):
        # The optimiser considers up-sized top-layer transistors; whatever
        # it returns must be at least as good as every fixed alternative.
        geometry = branch_prediction_table()
        best = best_asymmetric_wp(geometry, hetero)
        for mult in (1.0, 1.5, 2.0):
            fixed = word_partition(geometry, hetero, top_width_mult=mult)
            assert best.metrics.access_time <= fixed.metrics.access_time + 1e-15


class TestCamStructures:
    def test_cam_bp_pays_match_combine(self, iso):
        # A bit-partitioned CAM must AND the two half-match results.
        geometry = store_queue()
        base = evaluate_2d(geometry)
        bp = reduction_report(base, bit_partition(geometry, iso))
        pp = reduction_report(base, port_partition(geometry, iso))
        # PP wins the latency contest for the paper's CAM queues.
        assert pp.latency_pct >= bp.latency_pct - 12.0

    def test_iq_pp_in_paper_band(self, iso):
        # Table 6: IQ PP 26/35/50.
        geometry = issue_queue()
        base = evaluate_2d(geometry)
        report = reduction_report(base, port_partition(geometry, iso))
        assert 15.0 < report.latency_pct < 40.0
        assert 40.0 < report.footprint_pct < 70.0


class TestOrganisationCarriedThrough:
    @pytest.mark.parametrize("geometry", core_structures(), ids=lambda g: g.name)
    def test_partitions_report_the_2d_organisation(self, iso, geometry):
        # 3D partitioning splits the 2D layout; it keeps (Ndwl, Ndbl, Nspd).
        org = solve_2d(geometry)
        results = [bit_partition(geometry, iso), word_partition(geometry, iso)]
        if geometry.ports >= 2:
            results.append(port_partition(geometry, iso))
        for result in results:
            metrics = result.metrics
            assert (metrics.ndwl, metrics.ndbl, metrics.nspd) == (
                org.ndwl,
                org.ndbl,
                org.nspd,
            ), result.strategy
