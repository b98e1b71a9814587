"""ALPT/logALPT arithmetic and replication aggregation."""

from __future__ import annotations

import math
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellsched import ParameterError
from cellsched.experiments import to_dict
from cellsched.metrics import (
    FlowRecord,
    MetricsReport,
    aggregate,
    paired,
    summarize,
)


def record(size, arrival, departure) -> FlowRecord:
    return FlowRecord(file_size=size, arrival=arrival, departure=departure)


record_lists = st.lists(
    st.builds(
        record,
        st.floats(min_value=1e-3, max_value=1e6),
        st.just(0),
        st.integers(min_value=1, max_value=10**6),
    ),
    min_size=1,
    max_size=40,
)


class TestAlpt:
    def test_single_record(self):
        assert summarize([record(100.0, 0, 10)]).alpt == 10.0

    def test_hand_mean(self):
        records = [record(100.0, 0, 10), record(200.0, 0, 40)]
        assert summarize(records).alpt == pytest.approx(7.5)

    def test_unit_duration_contributes_size(self):
        assert summarize([record(123.25, 9, 10)]).alpt == 123.25

    def test_empty_is_undefined(self):
        with pytest.raises(ParameterError, match="^ALPT is undefined over zero"):
            summarize([])

    @given(record_lists)
    def test_permutation_invariant(self, records):
        reversed_alpt = summarize(list(reversed(records))).alpt
        assert summarize(records).alpt == pytest.approx(reversed_alpt)


class TestLogAlpt:
    def test_hand_value(self):
        report = summarize([record(100.0, 0, 10)])
        assert report.log_alpt == pytest.approx(math.log(10.0))

    def test_log_of_one(self):
        assert summarize([record(7.0, 0, 7)]).log_alpt == 0.0

    def test_symmetric_cancellation(self):
        records = [record(10.0, 0, 1), record(0.1, 0, 1)]
        assert summarize(records).log_alpt == pytest.approx(0.0, abs=1e-12)

    def test_empty_is_undefined(self):
        with pytest.raises(ParameterError):
            summarize([])

    @given(record_lists, st.floats(min_value=1e-3, max_value=1e3))
    def test_log_linearity_under_size_scaling(self, records, c):
        scaled = [record(r.file_size * c, r.arrival, r.departure) for r in records]
        assert summarize(scaled).log_alpt == pytest.approx(
            summarize(records).log_alpt + math.log(c), abs=1e-9
        )

    @given(record_lists)
    def test_geometric_mean_below_arithmetic(self, records):
        report = summarize(records)
        assert math.exp(report.log_alpt) <= report.alpt * (1.0 + 1e-12)


class TestSummarize:
    def test_bundles_metrics_and_counts(self):
        report = summarize([record(100.0, 0, 10)], unfinished=3)
        assert report == MetricsReport(
            alpt=10.0, log_alpt=pytest.approx(math.log(10.0)), completed=1, unfinished=3
        )

    def test_to_dict_fields(self):
        report = summarize([record(100.0, 0, 10)])
        assert set(to_dict(report)) == {"alpt", "log_alpt", "completed", "unfinished"}


class TestAggregate:
    @staticmethod
    def _report(value, completed=5, unfinished=1) -> MetricsReport:
        return MetricsReport(
            alpt=value, log_alpt=value, completed=completed, unfinished=unfinished
        )

    def test_identical_reports_have_zero_spread(self):
        agg = aggregate([self._report(4.0), self._report(4.0)])
        assert agg.alpt_mean == 4.0 and agg.alpt_std == 0.0
        assert agg.log_alpt_mean == 4.0 and agg.log_alpt_std == 0.0

    def test_two_value_hand_spread(self):
        agg = aggregate([self._report(3.0), self._report(5.0)])
        assert agg.alpt_mean == pytest.approx(4.0)
        assert agg.alpt_std == pytest.approx(math.sqrt(2.0), abs=1e-3)

    def test_three_value_hand_spread(self):
        agg = aggregate([self._report(1.0), self._report(2.0), self._report(3.0)])
        assert agg.log_alpt_mean == pytest.approx(2.0)
        assert agg.log_alpt_std == pytest.approx(1.0)

    def test_matches_statistics_module(self):
        values = [2.5, 3.5, 1.25, 4.0]
        agg = aggregate([self._report(v) for v in values])
        assert agg.alpt_mean == pytest.approx(statistics.fmean(values))
        assert agg.alpt_std == pytest.approx(statistics.stdev(values))

    def test_counts_accumulate(self):
        agg = aggregate([self._report(1.0, 5, 2), self._report(2.0, 7, 0)])
        assert agg.replications == 2
        assert agg.completed_total == 12
        assert agg.unfinished_total == 2

    def test_fewer_than_two_reports_rejected(self):
        with pytest.raises(ParameterError):
            aggregate([self._report(1.0)])


class TestPaired:
    @staticmethod
    def _reports(*values) -> list[MetricsReport]:
        return [MetricsReport(alpt=1.0, log_alpt=v, completed=1) for v in values]

    def test_hand_case(self):
        # differences 0.5, 1, 1: mean 5/6, std sqrt(1/12), t = mean / (std / sqrt 3) = 5
        report = paired(self._reports(2.5, 3.0, 4.0), self._reports(2.0, 2.0, 3.0))
        assert report.log_alpt_mean == pytest.approx(5 / 6)
        assert report.log_alpt_std == pytest.approx(math.sqrt(1 / 12))
        assert report.t == pytest.approx(5.0)
        assert report.replications == 3

    def test_no_spread(self):
        a = self._reports(1.0, 2.0, 3.0)
        assert paired(a, a).t == 0.0
        shifted = self._reports(1.5, 2.5, 3.5)
        assert paired(shifted, a).log_alpt_std == 0.0
        assert paired(shifted, a).t == math.inf
        assert paired(a, shifted).t == -math.inf

    def test_swap_negates(self):
        a, b = self._reports(1.0, 4.0, 2.0), self._reports(0.5, 3.0, 2.5)
        ab, ba = paired(a, b), paired(b, a)
        assert ba.log_alpt_mean == -ab.log_alpt_mean
        assert ba.t == -ab.t
        assert ba.log_alpt_std == ab.log_alpt_std

    @pytest.mark.parametrize("sizes", [(1, 1), (0, 0), (2, 3), (3, 2)])
    def test_too_short_or_unequal_rejected(self, sizes):
        a, b = (self._reports(*range(n)) for n in sizes)
        with pytest.raises(ParameterError):
            paired(a, b)
