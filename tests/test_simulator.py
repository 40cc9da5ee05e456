import math

import numpy as np
import pytest
import scipy.stats

from attnhawkes.domain import EventSequence, validate_sequence
from attnhawkes.simulator import (
    EXPONENTIAL,
    HALF_SINE,
    HawkesSpec,
    _true_intensities,
    kernel_eval,
    simulate_dataset,
    thin_simulate,
    true_intensity,
)

# two-type parameter sets used throughout: exponential-decay amplitudes
# alpha=[[3,2],[1,3]] with beta=5 everywhere, and half-sine amplitudes
# alpha=[[0.33,0.1],[0.05,0.33]], both with baseline 0.2
EXP_SPEC = HawkesSpec(
    mu=[0.2, 0.2], kernel=EXPONENTIAL, alpha=[[3.0, 2.0], [1.0, 3.0]], beta=np.full((2, 2), 5.0)
)
SINE_SPEC = HawkesSpec(mu=[0.2, 0.2], kernel=HALF_SINE, alpha=[[0.33, 0.1], [0.05, 0.33]])


class TestHawkesSpec:
    def test_shapes_enforced(self):
        with pytest.raises(ValueError):
            HawkesSpec(mu=[0.2], kernel=EXPONENTIAL, alpha=[[1.0, 0.0]], beta=[[1.0]])

    def test_exponential_requires_beta(self):
        with pytest.raises(ValueError):
            HawkesSpec(mu=[0.2], kernel=EXPONENTIAL, alpha=[[1.0]])

    def test_half_sine_rejects_beta(self):
        with pytest.raises(ValueError):
            HawkesSpec(mu=[0.2], kernel=HALF_SINE, alpha=[[0.3]], beta=[[1.0]])

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            HawkesSpec(mu=[0.2], kernel=HALF_SINE, alpha=[[-0.1]])

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            HawkesSpec(mu=[0.2], kernel="gamma", alpha=[[0.1]])


class TestKernelEval:
    def test_nonpositive_lag_is_zero(self):
        assert kernel_eval(EXP_SPEC, 0, 0, 0.0) == 0.0
        assert kernel_eval(EXP_SPEC, 0, 0, -1.0) == 0.0
        assert kernel_eval(SINE_SPEC, 0, 0, 0.0) == 0.0

    def test_exponential_value(self):
        # alpha_00 * exp(-beta_00 * tau) at tau = 0.2 is 3 e^{-1}
        assert kernel_eval(EXP_SPEC, 0, 0, 0.2) == pytest.approx(3.0 * math.exp(-1.0), rel=1e-12)

    def test_exponential_near_zero_lag_approaches_alpha(self):
        assert kernel_eval(EXP_SPEC, 0, 0, 1e-12) == pytest.approx(3.0, rel=1e-9)

    def test_half_sine_peak(self):
        assert kernel_eval(SINE_SPEC, 0, 1, math.pi / 2) == pytest.approx(0.1, rel=1e-12)

    def test_half_sine_vanishes_at_and_beyond_pi(self):
        assert kernel_eval(SINE_SPEC, 0, 0, math.pi) == 0.0
        assert kernel_eval(SINE_SPEC, 0, 0, 4.0) == 0.0

    def test_vectorized(self):
        taus = np.array([-1.0, 0.1, 2.0])
        out = kernel_eval(EXP_SPEC, 1, 0, taus)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0 * math.exp(-0.5), rel=1e-12)


class TestTrueIntensity:
    def test_empty_history_is_baseline(self):
        s = EventSequence(times=[], types=[], horizon=10.0, num_types=2)
        assert true_intensity(EXP_SPEC, s, 5.0, 0) == pytest.approx(0.2)

    def test_single_event_example(self):
        # one type-0 event at t=0; at t=0.2 the type-0 intensity is
        # mu + alpha_00 exp(-beta_00 * 0.2) = 0.2 + 3 e^{-1}
        s = EventSequence(times=[0.0], types=[0], horizon=10.0, num_types=2)
        assert true_intensity(EXP_SPEC, s, 0.2, 0) == pytest.approx(
            0.2 + 3.0 * math.exp(-1.0), rel=1e-12
        )

    def test_history_is_strictly_before(self):
        s = EventSequence(times=[1.0], types=[0], horizon=10.0, num_types=2)
        assert true_intensity(EXP_SPEC, s, 1.0, 0) == pytest.approx(0.2)

    def test_half_sine_window_closes(self):
        s = EventSequence(times=[0.0], types=[0], horizon=10.0, num_types=2)
        assert true_intensity(SINE_SPEC, s, 1.0, 0) == pytest.approx(
            0.2 + 0.33 * math.sin(1.0), rel=1e-12
        )
        assert true_intensity(SINE_SPEC, s, 5.0, 0) == pytest.approx(0.2)

    def test_brute_force_cross_check(self, rng):
        times = np.sort(rng.uniform(0, 9, size=25))
        types = rng.integers(0, 2, size=25)
        s = EventSequence(times=times, types=types, horizon=10.0, num_types=2)
        for spec in (EXP_SPEC, SINE_SPEC):
            t, k = 7.3, 1
            expected = spec.mu[k] + sum(
                kernel_eval(spec, k, int(types[i]), t - times[i])
                for i in range(25)
                if times[i] < t
            )
            assert true_intensity(spec, s, t, k) == pytest.approx(float(expected), rel=1e-12)


def _scalar_true_intensity(spec, seq, t, k):
    """The per-point formula ``true_intensity`` had before it was vectorized."""
    n = int(np.searchsorted(seq.times, t, side="left"))
    tau = t - seq.times[:n]
    src = seq.types[:n]
    lam = spec.mu[k]
    if n:
        if spec.kernel == EXPONENTIAL:
            lam += float(np.sum(spec.alpha[k, src] * np.exp(-spec.beta[k, src] * tau)))
        else:
            live = tau < math.pi
            lam += float(np.sum(spec.alpha[k, src[live]] * np.sin(tau[live])))
    return float(lam)


class TestTrueIntensities:
    @pytest.mark.parametrize("spec", [EXP_SPEC, SINE_SPEC], ids=["exp", "half-sine"])
    def test_matches_scalar_formula(self, rng, spec):
        times = np.sort(rng.uniform(0, 9, size=30))
        types = rng.integers(0, 2, size=30)
        seq = EventSequence(times=times, types=types, horizon=10.0, num_types=2)
        empty = EventSequence(times=[], types=[], horizon=10.0, num_types=2)
        # query times on events, between them, and lags past pi after the last
        query = np.sort(np.concatenate([times, rng.uniform(0, 10, size=40), [0.0, 10.0]]))
        for s in (seq, empty):
            values = _true_intensities(spec, s, query)
            assert values.shape == (len(query), 2)
            expected = [[_scalar_true_intensity(spec, s, t, k) for k in range(2)] for t in query]
            assert np.allclose(values, expected, rtol=1e-12, atol=0.0)
            for k in range(2):
                assert true_intensity(spec, s, float(query[7]), k) == values[7, k]


class TestThinSimulate:
    def test_zero_rate_gives_empty_sequence(self):
        spec = HawkesSpec(mu=[0.0], kernel=EXPONENTIAL, alpha=[[0.0]], beta=[[1.0]])
        s = thin_simulate(spec, 10.0, np.random.default_rng(0))
        assert len(s) == 0
        assert s.horizon == 10.0

    def test_output_is_valid_and_within_horizon(self):
        for seed in range(5):
            s = thin_simulate(EXP_SPEC, 20.0, np.random.default_rng(seed))
            validate_sequence(s)
            assert len(s) > 0

    def test_half_sine_output_valid(self):
        s = thin_simulate(SINE_SPEC, 100.0, np.random.default_rng(3))
        validate_sequence(s)
        assert len(s) > 0

    def test_deterministic_under_seed(self):
        a = thin_simulate(EXP_SPEC, 20.0, np.random.default_rng(7))
        b = thin_simulate(EXP_SPEC, 20.0, np.random.default_rng(7))
        assert a == b

    def test_poisson_reduction_mean_count(self):
        # with no excitation the process is Poisson(mu * T): mean 4 events
        spec = HawkesSpec(mu=[0.2], kernel=EXPONENTIAL, alpha=[[0.0]], beta=[[1.0]])
        rng = np.random.default_rng(2024)
        counts = [len(thin_simulate(spec, 20.0, rng)) for _ in range(10_000)]
        mean = np.mean(counts)
        # 3 sigma band around 4 with sigma = 2/sqrt(10000)
        assert abs(mean - 4.0) <= 3.0 * 2.0 / 100.0

    def test_poisson_reduction_gap_distribution(self):
        spec = HawkesSpec(mu=[0.2], kernel=EXPONENTIAL, alpha=[[0.0]], beta=[[1.0]])
        s = thin_simulate(spec, 30_000.0, np.random.default_rng(11))
        gaps = np.diff(np.concatenate([[0.0], s.times]))
        assert len(gaps) >= 5000
        stat = scipy.stats.kstest(gaps, "expon", args=(0.0, 1.0 / 0.2))
        assert stat.pvalue > 0.01

    def test_one_type_stationary_rate(self):
        # mu / (1 - alpha / beta) = 0.2 / 0.4 = 0.5 events per unit time
        spec = HawkesSpec(mu=[0.2], kernel=EXPONENTIAL, alpha=[[3.0]], beta=[[5.0]])
        s = thin_simulate(spec, 2000.0, np.random.default_rng(42))
        assert abs(len(s) / 2000.0 - 0.5) / 0.5 < 0.10

    def test_two_type_stationary_rate(self):
        # branching matrix B = alpha / beta has (I - B)^{-1} mu = [2.0, 1.5]
        rng = np.random.default_rng(5)
        s = thin_simulate(EXP_SPEC, 3000.0, rng)
        rates = np.bincount(s.types, minlength=2) / 3000.0
        assert np.allclose(rates, [2.0, 1.5], rtol=0.10)

    def test_half_sine_stationary_rate(self):
        # B = alpha * integral(sin) = 2 alpha; (I - B)^{-1} mu ~ [1.130, 0.921]
        total = sum(
            len(thin_simulate(SINE_SPEC, 100.0, np.random.default_rng(200 + i)))
            for i in range(40)
        )
        expected = (1.1297 + 0.9207) * 100 * 40
        assert abs(total - expected) / expected < 0.15

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            thin_simulate(EXP_SPEC, 0.0, np.random.default_rng(0))


class TestSimulateDataset:
    def test_sequences_all_valid_train_split(self):
        ds = simulate_dataset(EXP_SPEC, 20.0, 12, seed=7)
        assert len(ds.train) == 12 and not ds.val and not ds.test
        for s in ds.train:
            validate_sequence(s)
            assert s.num_types == 2

    def test_bit_identical_reproduction(self):
        a = simulate_dataset(EXP_SPEC, 20.0, 6, seed=9)
        b = simulate_dataset(EXP_SPEC, 20.0, 6, seed=9)
        assert a == b

    def test_per_sequence_seed_derivation(self):
        # sequence i only depends on (seed, i), not on how many others exist
        ds_small = simulate_dataset(EXP_SPEC, 20.0, 3, seed=13)
        ds_big = simulate_dataset(EXP_SPEC, 20.0, 5, seed=13)
        for i in range(3):
            assert ds_small.train[i] == ds_big.train[i]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=13, spawn_key=(2,)))
        assert ds_small.train[2] == thin_simulate(EXP_SPEC, 20.0, rng)
