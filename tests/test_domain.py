import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnhawkes.domain import (
    Dataset,
    EventSequence,
    IntegrationGrid,
    make_grid,
    split_dataset,
    validate_sequence,
)
from attnhawkes.errors import (
    BadFractions,
    DuplicateTimestamp,
    EventBeyondHorizon,
    NonMonotoneTimes,
    TypeOutOfRange,
)


def seq_of(events, horizon=10.0, num_types=2):
    return EventSequence.from_events(events, horizon=horizon, num_types=num_types)


class TestEventSequence:
    def test_construction_and_accessors(self):
        s = seq_of([(1.0, 0), (2.5, 1)])
        assert len(s) == 2
        assert s.events == [(1.0, 0), (2.5, 1)]
        assert s.times.dtype == np.float64
        assert s.types.dtype == np.int64

    def test_immutable_arrays(self):
        s = seq_of([(1.0, 0)])
        with pytest.raises(ValueError):
            s.times[0] = 5.0

    def test_equality(self):
        a = seq_of([(1.0, 0), (2.0, 1)])
        b = seq_of([(1.0, 0), (2.0, 1)])
        c = seq_of([(1.0, 0), (2.0, 0)])
        assert a == b
        assert a != c

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EventSequence(times=[1.0, 2.0], types=[0], horizon=5.0, num_types=1)


class TestValidateSequence:
    def test_empty_sequence_valid(self):
        validate_sequence(seq_of([], horizon=1.0))

    def test_typical_sequence_valid(self):
        validate_sequence(seq_of([(0.0, 0), (1.0, 1), (10.0, 0)]))

    def test_single_event_at_horizon_valid(self):
        validate_sequence(seq_of([(10.0, 1)]))

    def test_non_monotone_names_first_index(self):
        with pytest.raises(NonMonotoneTimes) as err:
            validate_sequence(seq_of([(1.0, 0), (0.5, 0), (0.2, 0)]))
        assert err.value.index == 1

    def test_duplicate_timestamp(self):
        with pytest.raises(DuplicateTimestamp) as err:
            validate_sequence(seq_of([(1.0, 0), (1.0, 1)]))
        assert err.value.index == 1

    def test_type_out_of_range(self):
        with pytest.raises(TypeOutOfRange) as err:
            validate_sequence(seq_of([(1.0, 0), (2.0, 2)]))
        assert err.value.index == 1
        with pytest.raises(TypeOutOfRange):
            validate_sequence(seq_of([(1.0, -1)]))

    def test_event_beyond_horizon(self):
        with pytest.raises(EventBeyondHorizon) as err:
            validate_sequence(seq_of([(1.0, 0), (11.0, 0)]))
        assert err.value.index == 1

    def test_negative_time_rejected(self):
        with pytest.raises(EventBeyondHorizon) as err:
            validate_sequence(seq_of([(-0.5, 0), (1.0, 0)]))
        assert err.value.index == 0

    def test_first_offending_index_wins(self):
        # index 1 has the duplicate, index 2 the bad type
        with pytest.raises(DuplicateTimestamp) as err:
            validate_sequence(seq_of([(1.0, 0), (1.0, 0), (2.0, 9)]))
        assert err.value.index == 1


class TestMakeGrid:
    def test_single_event_example(self):
        s = seq_of([(1.0, 0)], horizon=2.0, num_types=1)
        g = make_grid(s, 2)
        assert np.array_equal(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_empty_sequence_example(self):
        s = seq_of([], horizon=1.0)
        g = make_grid(s, 4)
        assert np.array_equal(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_subdivision_one_keeps_anchors_only(self):
        s = seq_of([(1.0, 0), (3.0, 1)], horizon=4.0)
        g = make_grid(s, 1)
        assert np.array_equal(g.times, [0.0, 1.0, 3.0, 4.0])

    def test_events_at_boundaries_deduplicated(self):
        s = seq_of([(0.0, 0), (2.0, 1)], horizon=2.0)
        g = make_grid(s, 2)
        assert np.array_equal(g.times, [0.0, 1.0, 2.0])

    def test_contains_all_events_and_endpoints(self, rng):
        times = np.sort(rng.uniform(0.1, 9.9, size=17))
        s = EventSequence(times=times, types=np.zeros(17, dtype=int), horizon=10.0, num_types=1)
        g = make_grid(s, 7)
        assert g.times[0] == 0.0 and g.times[-1] == s.horizon
        assert np.isin(times, g.times).all()
        assert (np.diff(g.times) > 0).all()

    def test_interior_points_uniform(self):
        s = seq_of([(0.3, 0), (7.1, 1)], horizon=9.0)
        g = make_grid(s, 5)
        anchors = [0.0, 0.3, 7.1, 9.0]
        for lo, hi in zip(anchors[:-1], anchors[1:]):
            inside = g.times[(g.times >= lo) & (g.times <= hi)]
            steps = np.diff(inside)
            assert steps.max() - steps.min() <= 1e-12 * (hi - lo)

    def test_bad_subdivision(self):
        with pytest.raises(ValueError):
            make_grid(seq_of([]), 0)

    @given(
        st.lists(st.floats(0.01, 9.99), min_size=0, max_size=12, unique=True),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_invariants(self, times, g_sub):
        times = sorted(times)
        s = EventSequence(
            times=times, types=[0] * len(times), horizon=10.0, num_types=1
        )
        g = make_grid(s, g_sub)
        assert g.times[0] == 0.0 and g.times[-1] == 10.0
        assert (np.diff(g.times) > 0).all()
        assert np.isin(np.asarray(times), g.times).all()


def dataset_of(n, num_types=1):
    seqs = tuple(
        EventSequence(times=[float(i) + 0.5], types=[0], horizon=float(n) + 1, num_types=num_types)
        for i in range(n)
    )
    return Dataset(train=seqs, val=(), test=(), num_types=num_types)


class TestSplitDataset:
    def test_seven_sequences_example(self):
        out = split_dataset(dataset_of(7), (0.6, 0.2, 0.2), seed=0)
        assert (len(out.train), len(out.val), len(out.test)) == (5, 1, 1)

    def test_ten_sequences(self):
        out = split_dataset(dataset_of(10), (0.6, 0.2, 0.2), seed=3)
        assert (len(out.train), len(out.val), len(out.test)) == (6, 2, 2)

    def test_remainder_goes_to_train(self):
        out = split_dataset(dataset_of(11), (0.34, 0.33, 0.33), seed=0)
        assert (len(out.train), len(out.val), len(out.test)) == (5, 3, 3)

    def test_zero_fraction_rejected(self):
        with pytest.raises(BadFractions):
            split_dataset(dataset_of(4), (1.0, 0.0, 0.0), seed=0)

    def test_bad_sum_rejected(self):
        with pytest.raises(BadFractions):
            split_dataset(dataset_of(4), (0.5, 0.3, 0.3), seed=0)

    def test_partition_preserves_multiset(self):
        ds = dataset_of(9)
        out = split_dataset(ds, (0.5, 0.25, 0.25), seed=5)
        assert sorted(s.times[0] for s in out.all_sequences()) == sorted(
            s.times[0] for s in ds.all_sequences()
        )

    def test_deterministic_under_seed(self):
        ds = dataset_of(8)
        a = split_dataset(ds, (0.6, 0.2, 0.2), seed=9)
        b = split_dataset(ds, (0.6, 0.2, 0.2), seed=9)
        assert a == b
        c = split_dataset(ds, (0.6, 0.2, 0.2), seed=10)
        assert a != c  # with 8 sequences a reshuffle almost surely differs


class TestDataset:
    def test_type_space_consistency_enforced(self):
        bad = EventSequence(times=[1.0], types=[0], horizon=2.0, num_types=3)
        with pytest.raises(ValueError):
            Dataset(train=(bad,), val=(), test=(), num_types=2)

    def test_split_access(self):
        ds = dataset_of(3)
        assert ds.split("train") == ds.train
        with pytest.raises(ValueError):
            ds.split("holdout")


class TestIntegrationGrid:
    def test_basic(self):
        g = IntegrationGrid(times=[0.0, 1.0])
        assert len(g) == 2
