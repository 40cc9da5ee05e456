import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from attnhawkes import simulator
from attnhawkes.domain import EventSequence, validate_sequence
from attnhawkes.errors import UnboundedIntensity
from attnhawkes.simulator import (
    EXPONENTIAL,
    HALF_SINE,
    HawkesSpec,
    _thin_lockstep,
    _true_intensities,
    branching_radius,
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

    def test_exponential_tail_underflows_to_zero_without_warnings(self):
        # beta * tau = 1000 underflows to exactly 0, not to a clamped alpha e^-700
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_eval(EXP_SPEC, 0, 0, 200.0) == 0.0
            assert kernel_eval(EXP_SPEC, 0, 0, -200.0) == 0.0
            out = kernel_eval(EXP_SPEC, 0, 0, np.array([-1e6, -200.0, 200.0, 1e6]))
        assert np.array_equal(out, np.zeros(4))


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
        assert thin_simulate(EXP_SPEC, 20.0, 7) == a  # a seed draws what its generator draws

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


def _spawned(seed, i):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def _assert_lockstep_matches_loop(spec, horizon, num_sequences, seed):
    """Every dataset sequence equals the per-sequence loop on its generator, bit for bit."""
    ds = simulate_dataset(spec, horizon, num_sequences, seed)
    assert len(ds.train) == num_sequences
    for i, seq in enumerate(ds.train):
        loop = thin_simulate(spec, horizon, _spawned(seed, i))
        assert seq.times.tobytes() == loop.times.tobytes(), i
        assert np.array_equal(seq.types, loop.types), i
        assert seq.horizon == loop.horizon == float(horizon)
    # a one-sequence dataset takes the loop, so check a lone lane directly
    if num_sequences:
        [lane] = _thin_lockstep(spec, float(horizon), [_spawned(seed, 0)])
        assert lane == ds.train[0]
    return ds


@st.composite
def thinning_cases(draw):
    """A random subcritical spec, horizon, dataset size and seed.

    Everything past the kernel family and type count comes from one drawn
    numpy seed: a type's mu or a row or column of alpha is zero with
    probability 1/4, the branching radius is scaled to at most 0.8, and the
    horizon lies in [0.5, 50].
    """
    kernel = draw(st.sampled_from([EXPONENTIAL, HALF_SINE]))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = rng.uniform(0.0, 0.5, k) * (rng.random(k) > 0.25)
    alpha = rng.uniform(0.0, 1.0, (k, k))
    alpha *= (rng.random(k) > 0.25)[:, None] * (rng.random(k) > 0.25)
    beta = rng.uniform(0.5, 5.0, (k, k)) if kernel == EXPONENTIAL else None
    radius = branching_radius(HawkesSpec(mu=mu, kernel=kernel, alpha=alpha, beta=beta))
    if radius > 0.0:
        alpha *= rng.uniform(0.0, 0.8) / radius
    spec = HawkesSpec(mu=mu, kernel=kernel, alpha=alpha, beta=beta)
    # keep near-critical draws to about 500 events per sequence on average
    branching = alpha / beta if kernel == EXPONENTIAL else 2.0 * alpha
    rate = np.linalg.solve(np.eye(k) - branching, mu).sum()
    horizon = min(rng.uniform(0.5, 50.0), max(0.5, 500.0 / max(rate, 1e-12)))
    return spec, horizon, int(rng.integers(0, 41)), int(rng.integers(2**32))


def _ring(groups=8, own=0.2, neighbour=0.1, mu=0.05):
    """The eight-group half-sine ring of the groups-cli benchmark workload."""
    alpha = own * np.eye(groups) + neighbour * np.roll(np.eye(groups), 1, axis=0)
    return HawkesSpec(mu=[mu] * groups, kernel=HALF_SINE, alpha=alpha)


class TestLockstep:
    @settings(max_examples=25, deadline=None)
    @given(case=thinning_cases())
    def test_dataset_equals_per_sequence_loop(self, case):
        _assert_lockstep_matches_loop(*case)

    @pytest.mark.parametrize("spec", [EXP_SPEC, SINE_SPEC], ids=["exp", "half-sine"])
    @pytest.mark.parametrize("num_sequences", [0, 1, 2])
    def test_few_sequences(self, spec, num_sequences):
        _assert_lockstep_matches_loop(spec, 20.0, num_sequences, 3)

    @pytest.mark.parametrize("spec", [EXP_SPEC, SINE_SPEC], ids=["exp", "half-sine"])
    def test_horizon_too_short_for_any_event(self, spec):
        ds = _assert_lockstep_matches_loop(spec, 1e-6, 12, 4)
        assert all(len(s) == 0 for s in ds.train)

    @pytest.mark.parametrize("kernel", [EXPONENTIAL, HALF_SINE])
    def test_all_baselines_zero(self, kernel):
        beta = [[2.0, 1.0], [1.0, 2.0]] if kernel == EXPONENTIAL else None
        spec = HawkesSpec(mu=[0.0, 0.0], kernel=kernel, alpha=[[0.2, 0.1], [0.1, 0.2]], beta=beta)
        ds = _assert_lockstep_matches_loop(spec, 10.0, 6, 5)
        assert all(len(s) == 0 for s in ds.train)

    def test_eight_group_ring(self):
        ds = _assert_lockstep_matches_loop(_ring(), 60.0, 24, 1)
        assert sum(len(s) for s in ds.train) > 24 * 30

    def test_a_sequence_ending_on_its_first_proposal(self):
        # at rate 0.05 over T = 20 a third of the first gaps pass the horizon
        spec = HawkesSpec(mu=[0.05], kernel=EXPONENTIAL, alpha=[[0.5]], beta=[[1.0]])
        ds = _assert_lockstep_matches_loop(spec, 20.0, 16, 6)
        lengths = [len(s) for s in ds.train]
        assert min(lengths) == 0 and max(lengths) > 1

    def test_draws_are_pinned(self):
        # sha256 over (length, times, types) of each sequence of the fit-exp
        # benchmark draw, recorded with the per-sequence loop
        h = hashlib.sha256()
        for s in simulate_dataset(EXP_SPEC, 20.0, 400, 11).train:
            h.update(np.array([len(s)], dtype=np.int64).tobytes())
            h.update(s.times.tobytes())
            h.update(s.types.tobytes())
        assert h.hexdigest() == "cc46cf612032dfc16411d43b8cbb353ccad426f7b7d3d7341ff351215f305b34"


EXPLOSIVE_EXP = HawkesSpec(mu=[1.0], kernel=EXPONENTIAL, alpha=[[10.0]], beta=[[5.0]])


class TestExplosiveGuards:
    def test_branching_radius(self):
        assert branching_radius(EXP_SPEC) == pytest.approx(0.6 + math.sqrt(0.08), rel=1e-12)
        assert branching_radius(SINE_SPEC) == pytest.approx(
            0.66 + 2.0 * math.sqrt(0.005), rel=1e-12
        )
        assert branching_radius(_ring()) == pytest.approx(0.6, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            EXPLOSIVE_EXP,
            HawkesSpec(mu=[0.1], kernel=EXPONENTIAL, alpha=[[5.0]], beta=[[5.0]]),
            HawkesSpec(mu=[0.1, 0.1], kernel=HALF_SINE, alpha=[[0.3, 0.25], [0.25, 0.3]]),
        ],
        ids=["radius-2", "radius-1", "half-sine-radius-1.1"],
    )
    def test_explosive_spec_rejected_before_any_draw(self, spec):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(UnboundedIntensity, match="spectral radius"):
            thin_simulate(spec, 4.0, rng)
        assert rng.bit_generator.state == state
        for num_sequences in (1, 3):
            with pytest.raises(UnboundedIntensity, match="spectral radius"):
                simulate_dataset(spec, 4.0, num_sequences, 0)

    def test_explosive_draw_stops_at_the_event_cap(self, monkeypatch):
        # the real cap is timed by the command-line hang test
        monkeypatch.setattr(simulator, "MAX_EVENTS", 2000)
        with pytest.raises(UnboundedIntensity, match="2000 events"):
            thin_simulate(EXPLOSIVE_EXP, 4.0, np.random.default_rng(0), allow_explosive=True)
        for num_sequences in (1, 3):
            with pytest.raises(UnboundedIntensity, match="2000 events"):
                simulate_dataset(EXPLOSIVE_EXP, 4.0, num_sequences, 0, allow_explosive=True)

    @pytest.mark.parametrize(
        "spec, horizon, seed", [(EXP_SPEC, 20.0, 3), (SINE_SPEC, 30.0, 1)], ids=["exp", "half-sine"]
    )
    def test_cap_applies_to_subcritical_draws_in_both_paths(self, spec, horizon, seed, monkeypatch):
        # the longest of these sequences outgrows the lockstep history's first capacity of 64
        monkeypatch.setattr(simulator, "MAX_EVENTS", 150)
        lengths = [len(s) for s in simulate_dataset(spec, horizon, 8, seed).train]
        assert 64 < max(lengths) <= 150
        with pytest.raises(UnboundedIntensity, match="150 events"):
            thin_simulate(spec, 2000.0, np.random.default_rng(1))
        with pytest.raises(UnboundedIntensity, match="150 events"):
            simulate_dataset(spec, 2000.0, 8, 2)


    @pytest.mark.parametrize(
        "spec",
        [
            HawkesSpec(mu=[1e308], kernel=EXPONENTIAL, alpha=[[1e308]], beta=[[1.0]]),
            HawkesSpec(mu=[1e308], kernel=HALF_SINE, alpha=[[1e308]]),
        ],
        ids=["exp", "half-sine"],
    )
    def test_an_overflowing_bound_raises_in_both_paths(self, spec):
        with np.errstate(over="ignore"):
            with pytest.raises(UnboundedIntensity, match="thinning bound is not finite"):
                thin_simulate(spec, 1.0, 0, allow_explosive=True)
            with pytest.raises(UnboundedIntensity, match="thinning bound is not finite"):
                simulate_dataset(spec, 1.0, 3, 0, allow_explosive=True)


class _StubGenerator:
    """Hands out preset draws: ``exponential`` ignores its scale."""

    def __init__(self, exponentials, uniforms):
        self._exponentials = iter(exponentials)
        self._uniforms = iter(uniforms)

    def exponential(self, scale):
        return next(self._exponentials)

    def random(self):
        return next(self._uniforms)


class TestHalfSineWindowEdge:
    # An event at t = fl(s - pi)'s successor is inside the bisect_right(times, s - pi)
    # window, yet fl(s - t) is exactly fl(pi), where the kernel is zero.  Only the
    # re-check tau < pi keeps its sin(fl(pi)) = 1.2e-16 out of the intensity.
    S = 3.738936833485145
    T = float(np.nextafter(S - math.pi, math.inf))
    SPEC = HawkesSpec(mu=[0.05], kernel=HALF_SINE, alpha=[[1.0]])

    def test_the_input_sits_on_the_edge(self):
        assert self.S - math.pi < self.T and self.S - self.T == math.pi
        assert self.T + math.pi == self.S
        assert math.sin(math.pi) > 0.0

    def test_lockstep_intensity_leaves_the_event_out(self):
        lanes = simulator._HalfSineLanes(self.SPEC, 1)
        hist = simulator._History(1)
        hist.append(np.array([0]), np.array([self.T]), np.array([0]))
        lam = lanes.intensities(np.array([self.S]), np.array([math.pi]), hist, np.array([0]))
        assert lam.tolist() == [[0.05]]

    def test_loop_rejects_a_proposal_only_the_edge_term_would_accept(self):
        # the first proposal lands at T and is accepted; the second lands at S, where
        # the threshold lies between mu and mu + alpha sin(fl(pi))
        lam_bar = 0.05 + 1.0  # the bound at T: the new event's kernel peak counts 1
        d = (0.05 + 0.5 * math.sin(math.pi)) / lam_bar
        assert 0.05 < d * lam_bar <= 0.05 + math.sin(math.pi)
        rng = _StubGenerator([self.T, math.pi, 10.0], [0.0, d])
        times, types = simulator._thin_half_sine(self.SPEC, 5.0, rng)
        assert times == [self.T] and types == [0]
