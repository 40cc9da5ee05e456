import math

import numpy as np
import pytest

from attnhawkes._forward import SequenceCache, event_pre_all_types
from attnhawkes.domain import EventSequence, make_grid
from attnhawkes.errors import EmptySplit, NonFinite, NoSourceEvents
from attnhawkes.evaluate import (
    _probe_pools,
    influence_heatmap,
    intensity_trace,
    recover_kernel,
    type_accuracy,
)
from attnhawkes.evaluate import test_tll as split_tll  # bare name would be collected
from attnhawkes.model import (
    VARIANT_ATTENTION,
    VARIANT_EXTRAPOLATION,
    ModelConfig,
    intensity_all_types,
    intensity_at,
    trigger_contribution,
    zeros_params,
)
from attnhawkes.numerics import softplus
from attnhawkes.trainer import compensator, event_term, log_likelihood

from conftest import random_params, random_sequence


def _oracle_kernels(params, cfg, seqs, taus):
    """Kernels (source, target, lag) from ``trigger_contribution``, averaged by hand
    over every source event of full lag coverage, or every source event if none is
    covered, each lag over the probes still in the window."""
    k = cfg.num_types
    phi = np.zeros((k, k, len(taus)))
    for source in range(k):
        probes = [(s, e) for s in seqs for e in np.flatnonzero(s.types == source)]
        probes = [(s, e) for s, e in probes if s.times[e] + taus[-1] <= s.horizon] or probes
        for target in range(k):
            for j, tau in enumerate(taus):
                values = [
                    trigger_contribution(params, cfg, s, e, s.times[e] + tau, target)
                    for s, e in probes
                    if s.times[e] + tau <= s.horizon
                ]
                phi[source, target, j] = np.mean(values) if values else 0.0
    return phi


class TestTestTll:
    def test_constant_model_closed_form(self):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = zeros_params(cfg)
        params.bias[:] = [0.4, -0.2]
        seqs = [
            EventSequence(times=[1.0, 3.0], types=[0, 1], horizon=10.0, num_types=2),
            EventSequence(times=[2.0], types=[0], horizon=5.0, num_types=2),
        ]
        lam = softplus(params.bias)
        expected = (
            2 * math.log(lam[0]) + math.log(lam[1]) - lam.sum() * 15.0
        ) / 3.0
        assert split_tll(params, cfg, seqs, grid_subdivisions=4) == pytest.approx(
            expected, rel=1e-12
        )

    def test_empty_split_raises(self, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = random_params(cfg, rng)
        with pytest.raises(EmptySplit):
            split_tll(params, cfg, [], grid_subdivisions=4)
        empty = EventSequence(times=[], types=[], horizon=5.0, num_types=1)
        with pytest.raises(EmptySplit):
            split_tll(params, cfg, [empty], grid_subdivisions=4)


class TestTypeAccuracy:
    def test_single_type_is_one(self, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        assert type_accuracy(random_params(cfg, rng), cfg, []) == 1.0

    def test_bias_only_predicts_largest_bias(self):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = zeros_params(cfg)
        params.bias[:] = [1.0, 0.0]
        seq = EventSequence(times=[1.0, 2.0, 3.0], types=[0, 0, 1], horizon=5.0, num_types=2)
        # events after the first always score type 0 highest: 1 of 2 correct
        assert type_accuracy(params, cfg, [seq]) == pytest.approx(0.5)

    def test_first_event_not_counted(self):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = zeros_params(cfg)
        params.bias[:] = [1.0, 0.0]
        lone = EventSequence(times=[1.0], types=[1], horizon=5.0, num_types=2)
        with pytest.raises(EmptySplit):
            type_accuracy(params, cfg, [lone])
        seq = EventSequence(times=[1.0, 2.0], types=[1, 0], horizon=5.0, num_types=2)
        assert type_accuracy(params, cfg, [lone, seq]) == 1.0

    @pytest.mark.parametrize(
        "skip, variant",
        [(False, VARIANT_ATTENTION), (False, VARIANT_EXTRAPOLATION), (True, VARIANT_ATTENTION)],
    )
    def test_event_pre_matches_oracle(self, rng, variant, skip):
        # x12 type embeddings make the score flush fire
        for num_types, embed_scale in ((3, 1.0), (4, 1.0), (4, 12.0)):
            cfg = ModelConfig(
                num_types=num_types, embed_dim=8, variant=variant, skip_connection=skip
            )
            params = random_params(cfg, rng)
            params.type_embed[:] *= embed_scale
            seq = random_sequence(rng, 12, num_types, 10.0)
            pre = event_pre_all_types(params, cfg, SequenceCache(cfg, seq))
            oracle = [intensity_all_types(params, cfg, seq, float(t)) for t in seq.times]
            assert np.allclose(softplus(pre), oracle, rtol=0.0, atol=1e-12)
            # the event term, alone and as read from the compensator grid's nodes
            expected = sum(math.log(lam[c]) for lam, c in zip(oracle, seq.types))
            grid = make_grid(seq, 3)
            ll = log_likelihood(params, cfg, seq, grid) + compensator(params, cfg, seq, grid)
            assert event_term(params, cfg, seq) == pytest.approx(expected, rel=1e-12)
            assert ll == pytest.approx(expected, rel=1e-12)


class TestRecoverKernel:
    def test_zero_value_weights_give_zero_kernel(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = zeros_params(cfg)
        params.bias[:] = 0.3
        seqs = [random_sequence(rng, 8, 2, 10.0)]
        est = recover_kernel(params, cfg, seqs, 0, 0, np.linspace(0.1, 1.0, 5))
        assert np.array_equal(est.phi, np.zeros(5))

    def test_single_probe_matches_trigger_contribution(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=8)
        params = random_params(cfg, rng)
        seq = EventSequence(
            times=[1.0, 2.0, 3.5], types=[0, 1, 0], horizon=10.0, num_types=2
        )
        taus = np.array([0.25, 0.5, 1.0])
        est = recover_kernel(params, cfg, [seq], 1, 0, taus)
        assert est.num_probes == 1  # only one type-1 event exists
        expected = [trigger_contribution(params, cfg, seq, 1, 2.0 + tau, 0) for tau in taus]
        assert np.allclose(est.phi, expected, rtol=1e-12)

    def test_no_source_events(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0], types=[0], horizon=5.0, num_types=2)
        with pytest.raises(NoSourceEvents):
            recover_kernel(params, cfg, [seq], 1, 0, np.array([0.5]))

    def test_tau_grid_validation(self, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0], types=[0], horizon=5.0, num_types=1)
        with pytest.raises(ValueError):
            recover_kernel(params, cfg, [seq], 0, 0, np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            recover_kernel(params, cfg, [seq], 0, 0, np.zeros(0))

    def test_uncovered_lags_average_available_probes(self, rng):
        # the lone source event sits so late that long lags leave the window
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[4.5], types=[0], horizon=5.0, num_types=1)
        taus = np.array([0.25, 2.0])
        est = recover_kernel(params, cfg, [seq], 0, 0, taus)
        assert est.phi[0] == pytest.approx(
            trigger_contribution(params, cfg, seq, 0, 4.75, 0), rel=1e-12
        )
        assert est.phi[1] == 0.0  # no probe reaches lag 2 inside the window

    def test_a_probe_with_no_lag_in_the_window_gives_zeros(self, rng):
        # the only type-0 event is 0.05 before the horizon, short of the first lag
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0, 2.5, 4.95], types=[1, 1, 0], horizon=5.0, num_types=2)
        taus = np.linspace(0.2, 2.0, 10)
        for target in (0, 1):
            est = recover_kernel(params, cfg, [seq], 0, target, taus)
            assert est.num_probes == 1
            assert np.array_equal(est.phi, np.zeros(10))

    def test_lags_below_half_an_ulp_of_the_probe_time_are_left_out(self, rng):
        # 1.0 + 1e-20 == 1.0, so the probe would not precede its own query
        cfg = ModelConfig(num_types=1, embed_dim=8)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0], types=[0], horizon=4.0, num_types=1)
        est = recover_kernel(params, cfg, [seq], 0, 0, [1e-20])
        assert np.array_equal(est.phi, [0.0])
        both = recover_kernel(params, cfg, [seq], 0, 0, [1e-20, 0.5])
        alone = recover_kernel(params, cfg, [seq], 0, 0, [0.5])
        assert both.phi[0] == 0.0
        assert both.phi[1] == alone.phi[0]
        assert both.phi[1] == pytest.approx(
            trigger_contribution(params, cfg, seq, 0, 1.5, 0), rel=1e-12
        )
        heat = influence_heatmap(params, cfg, [seq], tau_max=1e-20, steps=1)
        assert np.array_equal(heat.integrals, [[0.0]])

    def test_probe_pool_subsampling(self, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = random_params(cfg, rng)
        seqs = [random_sequence(rng, 20, 1, 50.0) for _ in range(3)]
        est = recover_kernel(params, cfg, seqs, 0, 0, np.array([0.5]), num_probes=7)
        assert est.num_probes == 7
        again = recover_kernel(params, cfg, seqs, 0, 0, np.array([0.5]), num_probes=7)
        assert np.array_equal(est.phi, again.phi)

    def test_type_out_of_range_rejected(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0, 2.0], types=[0, 1], horizon=5.0, num_types=2)
        for source, target in ((0, 2), (0, -1), (2, 0), (-1, 0)):
            with pytest.raises(ValueError):
                recover_kernel(params, cfg, [seq], source, target, np.array([0.5]))

    def test_num_probes_below_one_rejected(self, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0], types=[0], horizon=5.0, num_types=1)
        for num_probes in (0, -1):
            with pytest.raises(ValueError):
                recover_kernel(params, cfg, [seq], 0, 0, np.array([0.5]), num_probes)
            with pytest.raises(ValueError):
                influence_heatmap(params, cfg, [seq], 1.0, 4, num_probes)

    @pytest.mark.parametrize("num_types", [1, 2, 4])
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("embed_scale", [1.0, 12.0])
    def test_pooled_kernels_match_oracle_average(self, rng, num_types, skip, embed_scale):
        # several probes in each of several sequences; the first grid's probes
        # stay in the window, the second grid leaves it for every source event
        cfg = ModelConfig(num_types=num_types, embed_dim=8, skip_connection=skip)
        params = random_params(cfg, rng)
        params.type_embed[:] *= embed_scale
        seqs = [random_sequence(rng, 10, num_types, 6.0) for _ in range(3)]
        for taus in (np.linspace(0.2, 1.0, 5), np.array([0.5, 2.0, 4.5, 9.0])):
            expected = _oracle_kernels(params, cfg, seqs, taus)
            scale = np.abs(expected).max()
            for source in range(num_types):
                for target in range(num_types):
                    est = recover_kernel(params, cfg, seqs, source, target, taus)
                    assert np.abs(est.phi - expected[source, target]).max() <= 1e-12 * scale
        # the heatmap's lags at tau_max 1 and 5 steps are the first grid's
        taus = np.linspace(0.2, 1.0, 5)
        integrals = np.trapezoid(_oracle_kernels(params, cfg, seqs, taus), taus).T
        hm = influence_heatmap(params, cfg, seqs, tau_max=1.0, steps=5)
        assert np.abs(hm.integrals - integrals).max() <= 1e-12 * np.abs(integrals).max()

    def test_probe_type_pair_underflow_raises(self, rng):
        # the input of test_type_pair_underflow_raises: at +-20 the type-1
        # event's weight underflows for type-0 queries whose only history it is
        cfg = ModelConfig(num_types=2, embed_dim=4)
        seq = EventSequence(times=[1.0, 2.0, 3.0], types=[1, 0, 0], horizon=4.0, num_types=2)
        params = random_params(cfg, rng)
        params.type_embed[:] = [20.0, -20.0]
        taus = np.linspace(0.05, 1.0, 20)
        with pytest.raises(NonFinite):
            recover_kernel(params, cfg, [seq], 1, 0, taus)
        with pytest.raises(NonFinite):
            influence_heatmap(params, cfg, [seq])
        # at +-15 the pair (0, 1) reads about 7e-276 where the oracle flushes
        # to 0, so errors are measured against the largest value of any pair
        params.type_embed[:] = [15.0, -15.0]
        expected = _oracle_kernels(params, cfg, [seq], taus)
        scale = np.abs(expected).max()
        for source in range(2):
            for target in range(2):
                est = recover_kernel(params, cfg, [seq], source, target, taus)
                assert np.abs(est.phi - expected[source, target]).max() <= 1e-12 * scale

    def test_non_finite_or_unordered_lags_rejected(self, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0], types=[0], horizon=5.0, num_types=1)
        for taus in ([np.nan], [0.5, np.nan], [0.5, np.inf], [0.5, 0.5], [1.0, 0.5]):
            with pytest.raises(ValueError):
                recover_kernel(params, cfg, [seq], 0, 0, np.array(taus))

    def test_extrapolation_variant_rejected(self, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4, variant=VARIANT_EXTRAPOLATION)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0], types=[0], horizon=5.0, num_types=1)
        with pytest.raises(ValueError):
            recover_kernel(params, cfg, [seq], 0, 0, np.array([0.5]))
        with pytest.raises(ValueError, match="heatmap apply to the attention variant"):
            influence_heatmap(params, cfg, [seq])


def _per_pair_probe_pool(seqs, source, taus, num_probes):
    """The pair-by-pair list comprehension that ``_probe_pools`` replaced."""
    candidates = [
        (i, e)
        for i, seq in enumerate(seqs)
        for e in np.flatnonzero(seq.types == source)
    ]
    if not candidates:
        raise NoSourceEvents(f"no events of source type {source}")
    covered = [
        (i, e) for i, e in candidates if seqs[i].times[e] + taus[-1] <= seqs[i].horizon
    ]
    pool = covered if covered else candidates
    if len(pool) > num_probes:
        stride_idx = (np.arange(num_probes) * len(pool)) // num_probes
        pool = [pool[int(j)] for j in stride_idx]
    return pool


class TestProbePools:
    def sequences(self, rng):
        """Empty sequences among full ones; type 2 occurs only too late for full coverage."""
        seqs = []
        for length in (0, 5, 12, 0, 30, 1, 17):
            times = np.sort(rng.uniform(0.1, 10.0, size=length))
            seqs.append(EventSequence(times, rng.integers(0, 2, size=length), 10.0, 4))
        seqs.append(EventSequence([2.0, 9.5, 9.9], [0, 2, 2], 10.0, 4))
        return seqs

    @pytest.mark.parametrize("num_probes", [1, 3, 7, 200])
    def test_same_pairs_as_per_pair_lists(self, rng, num_probes):
        seqs = self.sequences(rng)
        taus = np.array([0.5, 1.0])
        pools = _probe_pools(seqs, [0, 1, 2], taus, num_probes)
        for source, pool in zip([0, 1, 2], pools):
            expected = _per_pair_probe_pool(seqs, source, taus, num_probes)
            assert pool == [(int(i), int(e)) for i, e in expected]
        assert pools[2] == [(7, 1), (7, 2)][:num_probes]  # no covered event: all serve

    def test_missing_source_raises_in_source_order(self, rng):
        seqs = self.sequences(rng)
        taus = np.array([0.5])
        for sources in ([0, 3, 1], [3, 0]):
            with pytest.raises(NoSourceEvents, match="source type 3"):
                _probe_pools(seqs, sources, taus, 5)
        with pytest.raises(NoSourceEvents, match="source type 0"):
            _probe_pools([], [0, 1], taus, 5)
        with pytest.raises(NoSourceEvents, match="source type 1"):
            _probe_pools([EventSequence([], [], 10.0, 4)] * 2, [1], taus, 5)


class TestInfluenceHeatmap:
    def test_matches_kernel_integrals(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=8)
        params = random_params(cfg, rng)
        seqs = [random_sequence(rng, 12, 2, 20.0) for _ in range(2)]
        hm = influence_heatmap(params, cfg, seqs, tau_max=1.0, steps=10, num_probes=50)
        assert hm.integrals.shape == (2, 2)
        taus = np.linspace(0.1, 1.0, 10)
        est = recover_kernel(params, cfg, seqs, 1, 0, taus, num_probes=50)
        assert hm.integrals[0, 1] == pytest.approx(np.trapezoid(est.phi, taus), rel=1e-12)

    @pytest.mark.parametrize("skip", [False, True])
    def test_one_pass_matches_per_source_recovery(self, rng, skip):
        # K=4 pools of 8, 7, 2 and 2 probes: source 0 is subsampled, source 2
        # occurs in one sequence only, and no source-3 event is covered, so its
        # pool falls back to every source-3 event and drops lags past the window
        cfg = ModelConfig(num_types=4, embed_dim=8, skip_connection=skip)
        params = random_params(cfg, rng)
        params.type_embed[:] *= 3.0
        seqs = [
            EventSequence(
                times=[0.3, 0.7, 1.1, 1.6, 2.0, 2.4, 2.9, 3.3, 3.8, 4.4, 5.6],
                types=[0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 3],
                horizon=6.0,
                num_types=4,
            ),
            EventSequence(
                times=[0.2, 0.9, 1.4, 2.2, 2.8, 3.5, 4.1, 5.3],
                types=[0, 2, 1, 0, 2, 0, 1, 3],
                horizon=6.0,
                num_types=4,
            ),
            EventSequence(
                times=[0.5, 1.8, 2.6, 3.1, 4.7], types=[1, 0, 0, 1, 0], horizon=6.0, num_types=4
            ),
        ]
        hm = influence_heatmap(params, cfg, seqs, tau_max=1.0, steps=5, num_probes=8)
        taus = np.linspace(0.2, 1.0, 5)
        scale = np.abs(hm.integrals).max()
        assert scale > 0.0
        for source, pool_size in enumerate([8, 7, 2, 2]):
            for target in range(4):
                est = recover_kernel(params, cfg, seqs, source, target, taus, num_probes=8)
                assert est.num_probes == pool_size
                cell = np.trapezoid(est.phi, taus)
                assert abs(hm.integrals[target, source] - cell) <= 1e-12 * scale
        assert hm.num_probes == 8
        # the guard input of test_probe_type_pair_underflow_raises still raises
        guard_cfg = ModelConfig(num_types=2, embed_dim=4, skip_connection=skip)
        guard = random_params(guard_cfg, rng)
        guard.type_embed[:] = [20.0, -20.0]
        seq = EventSequence(times=[1.0, 2.0, 3.0], types=[1, 0, 0], horizon=4.0, num_types=2)
        with pytest.raises(NonFinite):
            influence_heatmap(guard, guard_cfg, [seq])

    def test_zero_model_gives_zero_heatmap(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = zeros_params(cfg)
        seqs = [random_sequence(rng, 10, 2, 10.0)]
        hm = influence_heatmap(params, cfg, seqs, tau_max=0.5, steps=5)
        assert np.array_equal(hm.integrals, np.zeros((2, 2)))


    def test_non_finite_tau_max_rejected(self, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0], types=[0], horizon=5.0, num_types=1)
        for tau_max in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError):
                influence_heatmap(params, cfg, [seq], tau_max, 4)

    def test_steps_below_one_rejected(self, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0], types=[0], horizon=5.0, num_types=1)
        for steps in (0, -2):
            with pytest.raises(ValueError):
                influence_heatmap(params, cfg, [seq], 1.0, steps)


class TestIntensityTrace:
    def test_matches_pointwise_intensity(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=8)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0, 3.0, 7.0], types=[0, 1, 0], horizon=10.0, num_types=2)
        grid = make_grid(seq, 3)
        trace = intensity_trace(params, cfg, seq, grid)
        assert trace.values.shape == (len(grid.times), 2)
        assert np.array_equal(trace.times, grid.times)
        for n in (0, 2, 5, len(grid.times) - 1):
            t = float(grid.times[n])
            for k in range(2):
                assert trace.values[n, k] == pytest.approx(
                    intensity_at(params, cfg, seq, t, k), rel=1e-12
                )

    def test_event_times_show_left_limits(self, rng):
        # the trace at an event must exclude the event itself
        cfg = ModelConfig(num_types=1, embed_dim=8)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[2.0], types=[0], horizon=4.0, num_types=1)
        grid = make_grid(seq, 2)
        trace = intensity_trace(params, cfg, seq, grid)
        n = int(np.searchsorted(grid.times, 2.0))
        empty = EventSequence(times=[], types=[], horizon=4.0, num_types=1)
        assert trace.values[n, 0] == pytest.approx(
            intensity_at(params, cfg, empty, 2.0, 0), rel=1e-12
        )

    def test_constant_model_is_flat(self):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = zeros_params(cfg)
        params.bias[:] = [0.5, -0.5]
        seq = EventSequence(times=[1.0, 2.0], types=[0, 1], horizon=5.0, num_types=2)
        trace = intensity_trace(params, cfg, seq, make_grid(seq, 4))
        assert np.allclose(trace.values, softplus(params.bias)[None, :], rtol=1e-15)
