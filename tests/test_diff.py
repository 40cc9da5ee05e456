import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from attnhawkes import diff
from attnhawkes._forward import SequenceCache
from attnhawkes.diff import (
    GradientBundle,
    central_difference,
    finite_diff_gradient,
    objective_and_gradients,
    objective_value,
)
from attnhawkes.domain import EventSequence, IntegrationGrid, make_grid
from attnhawkes.errors import DuplicateTimestamp, NonFinite, NonMonotoneTimes
from attnhawkes.evaluate import intensity_trace
from attnhawkes.model import (
    VARIANT_ATTENTION,
    VARIANT_EXTRAPOLATION,
    ModelConfig,
    ModelParams,
    attention_matrix,
    flatten_params,
    intensity_all_types,
    param_shapes,
    perturb_param,
    zeros_params,
)
from attnhawkes.numerics import sigmoid, softplus
from attnhawkes.trainer import compensator, log_likelihood

from conftest import random_params, random_sequence


def _batch(cfg, seqs):
    return [(s, make_grid(s, cfg.grid_subdivisions)) for s in seqs]


def _rel_err(exact, approx):
    denom = np.maximum(np.abs(exact), 1e-8)
    return float(np.max(np.abs(exact - approx) / denom))


class TestClosedFormOracle:
    """With every weight zero the model is a constant-rate process, where the
    likelihood and its bias gradient have closed forms; the trapezoid rule is
    exact for a constant integrand, so agreement must be near machine level."""

    def setup_batch(self, rng, cfg):
        seqs = [random_sequence(rng, n, cfg.num_types, 10.0) for n in (6, 3, 9)]
        return seqs, _batch(cfg, seqs)

    def test_objective(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        seqs, batch = self.setup_batch(rng, cfg)
        b = np.array([0.3, -0.7])
        params = zeros_params(cfg)
        params.bias[:] = b
        expected = sum(
            sum(np.sum(s.types == k) * math.log(softplus(b[k])) for k in range(2))
            - softplus(b).sum() * s.horizon
            for s in seqs
        )
        assert objective_value(params, cfg, batch) == pytest.approx(expected, rel=1e-13)

    def test_bias_gradient(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        seqs, batch = self.setup_batch(rng, cfg)
        b = np.array([0.3, -0.7])
        params = zeros_params(cfg)
        params.bias[:] = b
        g = objective_and_gradients(params, cfg, batch)
        counts = np.array([sum(np.sum(s.types == k) for s in seqs) for k in range(2)])
        total_time = sum(s.horizon for s in seqs)
        expected = counts * sigmoid(b) / softplus(b) - total_time * sigmoid(b)
        assert np.allclose(g.bias, expected, rtol=1e-12)

    def test_other_gradients_exactly_zero(self, rng):
        # zero value/readout weights cut every path except the bias
        cfg = ModelConfig(num_types=2, embed_dim=4)
        _, batch = self.setup_batch(rng, cfg)
        params = zeros_params(cfg)
        params.bias[:] = [0.3, -0.7]
        g = objective_and_gradients(params, cfg, batch)
        assert np.array_equal(g.type_embed, np.zeros_like(g.type_embed))
        assert np.array_equal(g.value_proj, np.zeros_like(g.value_proj))
        assert np.array_equal(g.readout, np.zeros_like(g.readout))


class TestGradientExactness:
    @pytest.mark.parametrize(
        "variant,m,k,length,skip,embed_scale",
        [
            pytest.param(VARIANT_ATTENTION, 4, 2, 5, False, 1.0, id="ithp-4-2-5"),
            pytest.param(VARIANT_ATTENTION, 8, 1, 0, False, 1.0, id="ithp-8-1-0"),
            pytest.param(VARIANT_EXTRAPOLATION, 4, 2, 5, False, 1.0, id="ex-ithp-4-2-5"),
            pytest.param(VARIANT_EXTRAPOLATION, 6, 3, 1, False, 1.0, id="ex-ithp-6-3-1"),
            # x12 type embeddings spread each row's type-pair scores by
            # about 140, far past the pointwise oracle's flush threshold
            pytest.param(VARIANT_ATTENTION, 4, 4, 9, False, 12.0, id="ithp-4-4-9-x12"),
            pytest.param(VARIANT_ATTENTION, 4, 4, 9, True, 12.0, id="ithp-4-4-9-x12-skip"),
        ],
    )
    def test_matches_central_differences(self, variant, m, k, length, skip, embed_scale):
        rng = np.random.default_rng(6)
        cfg = ModelConfig(
            num_types=k, embed_dim=m, variant=variant, grid_subdivisions=3, skip_connection=skip
        )
        params = random_params(cfg, rng)
        params.type_embed[:] *= embed_scale
        seq = random_sequence(rng, length, k, 2.0)
        batch = _batch(cfg, [seq])
        exact = objective_and_gradients(params, cfg, batch).as_vector(cfg)
        approx = finite_diff_gradient(params, cfg, batch, eps=1e-5).as_vector(cfg)
        assert _rel_err(exact, approx) < 1e-4

    def test_extrapolation_saturated_type_pairs(self):
        # the input an ex-ithp-4-4-9-x12 row above would take: x12 type
        # embeddings saturate every own-type softmax, and the gradient of the
        # one type-0 event's embedding falls to 2e-11-5e-10.  Central
        # differences at eps=1e-5 resolve no better than ulp(objective) / eps,
        # 4e-10 here, so the per-entry error above fails on any correct code;
        # each entry is held to the same 1e-4 plus four such ulps
        rng = np.random.default_rng(6)
        cfg = ModelConfig(
            num_types=4, embed_dim=4, variant=VARIANT_EXTRAPOLATION, grid_subdivisions=3
        )
        params = random_params(cfg, rng)
        params.type_embed[:] *= 12.0
        batch = _batch(cfg, [random_sequence(rng, 9, 4, 2.0)])
        bundle = objective_and_gradients(params, cfg, batch)
        exact = bundle.as_vector(cfg)
        approx = finite_diff_gradient(params, cfg, batch, eps=1e-5).as_vector(cfg)
        round_off = 4.0 * np.spacing(abs(bundle.objective)) / 1e-5
        assert ((exact != 0.0) & (np.abs(exact) < round_off)).any()
        assert (np.abs(exact - approx) <= 1e-4 * np.abs(exact) + round_off).all()

    def test_skip_connection_gradient(self):
        rng = np.random.default_rng(6)
        cfg = ModelConfig(num_types=2, embed_dim=4, skip_connection=True, grid_subdivisions=3)
        params = random_params(cfg, rng)
        batch = _batch(cfg, [random_sequence(rng, 4, 2, 2.0)])
        exact = objective_and_gradients(params, cfg, batch).as_vector(cfg)
        approx = finite_diff_gradient(params, cfg, batch, eps=1e-5).as_vector(cfg)
        assert _rel_err(exact, approx) < 1e-4


class TestGradientBundle:
    @pytest.mark.parametrize("variant", [VARIANT_ATTENTION, VARIANT_EXTRAPOLATION])
    def test_sets_exactly_the_variant_fields(self, rng, variant):
        cfg = ModelConfig(num_types=2, embed_dim=4, variant=variant, grid_subdivisions=3)
        params = random_params(cfg, rng)
        batch = _batch(cfg, [random_sequence(rng, 3, 2, 2.0)])
        for bundle in (
            objective_and_gradients(params, cfg, batch),
            finite_diff_gradient(params, cfg, batch),
        ):
            present = [
                f.name for f in dataclasses.fields(ModelParams) if getattr(bundle, f.name) is not None
            ]
            assert present == list(param_shapes(cfg))
            for name, shape in param_shapes(cfg).items():
                assert getattr(bundle, name).shape == shape
            assert isinstance(bundle.objective, float)

    def test_objective_is_required(self):
        cfg = ModelConfig(num_types=1, embed_dim=2)
        arrays = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
        with pytest.raises(TypeError):
            GradientBundle(**arrays)
        assert GradientBundle(objective=-1.5, **arrays).objective == -1.5


class TestStructure:
    def test_additivity_over_sequences(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=6)
        params = random_params(cfg, rng)
        a = random_sequence(rng, 7, 2, 8.0)
        b = random_sequence(rng, 4, 2, 5.0)
        both = objective_and_gradients(params, cfg, _batch(cfg, [a, b]))
        ga = objective_and_gradients(params, cfg, _batch(cfg, [a]))
        gb = objective_and_gradients(params, cfg, _batch(cfg, [b]))
        assert both.objective == pytest.approx(ga.objective + gb.objective, rel=1e-10)
        assert np.allclose(both.bias, ga.bias + gb.bias, rtol=1e-10)
        assert np.allclose(both.value_proj, ga.value_proj + gb.value_proj, rtol=1e-10, atol=1e-13)

    def test_empty_batch(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        assert objective_value(params, cfg, []) == 0.0

    def test_deterministic(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=6)
        params = random_params(cfg, rng)
        batch = _batch(cfg, [random_sequence(rng, 10, 2, 8.0)])
        g1 = objective_and_gradients(params, cfg, batch)
        g2 = objective_and_gradients(params, cfg, batch)
        assert g1.objective == g2.objective
        assert np.array_equal(g1.as_vector(cfg), g2.as_vector(cfg))

    def test_unused_readout_has_zero_gradient_in_extrapolation(self, rng):
        # the extrapolation head reads the MLP output, never the value readout
        cfg = ModelConfig(num_types=2, embed_dim=4, variant=VARIANT_EXTRAPOLATION)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0, 2.5, 4.0], types=[0, 1, 0], horizon=8.0, num_types=2)
        g = objective_and_gradients(params, cfg, _batch(cfg, [seq]))
        assert np.array_equal(g.readout, np.zeros_like(g.readout))

    def test_absent_type_embedding_has_zero_gradient_in_extrapolation(self, rng):
        # type-1 never occurs, and extrapolation queries are events only, so
        # the type-1 embedding column is disconnected from the objective
        cfg = ModelConfig(num_types=2, embed_dim=4, variant=VARIANT_EXTRAPOLATION)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0, 2.5, 4.0], types=[0, 0, 0], horizon=8.0, num_types=2)
        g = objective_and_gradients(params, cfg, _batch(cfg, [seq]))
        assert np.array_equal(g.type_embed[:, 1], np.zeros(4))
        # the attention variant still queries type 1 through the compensator;
        # with two source types its type-pair scores reweight the history
        # (with one, they shift each row's scores evenly and cancel)
        cfg2 = ModelConfig(num_types=3, embed_dim=4)
        params2 = random_params(cfg2, rng)
        seq2 = EventSequence(times=[1.0, 2.5, 4.0], types=[0, 2, 0], horizon=8.0, num_types=3)
        g2 = objective_and_gradients(params2, cfg2, _batch(cfg2, [seq2]))
        approx = finite_diff_gradient(params2, cfg2, _batch(cfg2, [seq2]), eps=1e-5)
        assert np.abs(g2.type_embed[:, 1]).max() > 0
        assert _rel_err(g2.type_embed[:, 1], approx.type_embed[:, 1]) < 1e-4

    def test_objective_value_agrees_with_bundle(self, rng):
        cfg = ModelConfig(num_types=3, embed_dim=4)
        params = random_params(cfg, rng)
        batch = _batch(cfg, [random_sequence(rng, 6, 3, 5.0)])
        assert objective_value(params, cfg, batch) == objective_and_gradients(
            params, cfg, batch
        ).objective

    def test_underflowed_intensity_raises(self, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = zeros_params(cfg)
        params.bias[:] = -800.0  # softplus underflows to exactly zero
        seq = EventSequence(times=[1.0], types=[0], horizon=2.0, num_types=1)
        with pytest.raises(NonFinite):
            objective_value(params, cfg, _batch(cfg, [seq]))

    def test_type_pair_underflow_raises(self, rng):
        # type embeddings +a and -a spread the type-pair scores by
        # 2 * 4 * a**2 / sqrt(8): 1131 at a=20 underflows the type-1 weight
        # of type-0 queries whose only history is the type-1 event; 636 at
        # a=15 does not, so that input still matches the oracle
        cfg = ModelConfig(num_types=2, embed_dim=4)
        seq = EventSequence(times=[1.0, 2.0, 3.0], types=[1, 0, 0], horizon=4.0, num_types=2)
        grid = make_grid(seq, cfg.grid_subdivisions)
        params = random_params(cfg, rng)
        params.type_embed[:] = [20.0, -20.0]
        with pytest.raises(NonFinite):
            log_likelihood(params, cfg, seq, grid)
        with pytest.raises(NonFinite):
            objective_and_gradients(params, cfg, [(seq, grid)])
        params.type_embed[:] = [15.0, -15.0]
        trace = intensity_trace(params, cfg, seq, grid)
        oracle = [intensity_all_types(params, cfg, seq, float(t)) for t in grid.times]
        assert np.allclose(trace.values, oracle, rtol=1e-12, atol=0.0)

    def test_type_pair_underflow_input_returns_in_extrapolation(self, rng):
        # the +-20 input above: ex-ithp's own-type softmax keeps its max shift,
        # so the type-1 weight of a type-0 query, exp(-3200 / sqrt(8)) unshifted,
        # cannot underflow a row to zero
        cfg = ModelConfig(num_types=2, embed_dim=4, variant=VARIANT_EXTRAPOLATION)
        seq = EventSequence(times=[1.0, 2.0, 3.0], types=[1, 0, 0], horizon=4.0, num_types=2)
        params = random_params(cfg, rng)
        params.type_embed[:] = [20.0, -20.0]
        value = log_likelihood(params, cfg, seq, make_grid(seq, cfg.grid_subdivisions))
        assert value == pytest.approx(-35.18316279987432, rel=1e-12)

    def test_perturbation_moves_objective_as_predicted(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        batch = _batch(cfg, [random_sequence(rng, 8, 2, 6.0)])
        g = objective_and_gradients(params, cfg, batch)
        delta = 1e-6
        shifted = perturb_param(params, "bias", (0,), delta)
        change = objective_value(shifted, cfg, batch) - g.objective
        assert change == pytest.approx(g.bias[0] * delta, rel=1e-4)

    @pytest.mark.parametrize("fn", [objective_value, objective_and_gradients])
    def test_a_batch_is_held_one_cache_at_a_time(self, rng, monkeypatch, fn):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        batch = _batch(cfg, [random_sequence(rng, n, 2, 8.0) for n in (5, 9, 3)])
        expected = fn(params, cfg, batch)
        refs, alive = [], []

        def build(cfg, seq, grid):
            # how many earlier caches are still alive when the next is built
            alive.append(sum(ref() is not None for ref in refs))
            cache = SequenceCache(cfg, seq, grid)
            refs.append(weakref.ref(cache))
            return cache

        monkeypatch.setattr(diff, "SequenceCache", build)
        got = fn(params, cfg, batch)
        assert alive == [0, 0, 0]
        assert getattr(got, "objective", got) == getattr(expected, "objective", expected)

    def test_long_sequence_gradient_memory_bounded(self, rng):
        # grid attention runs in row blocks, so no (nodes, events) array is
        # built: a whole 2000-event softmax at G=10 would take about 1.3 GB
        cfg = ModelConfig(num_types=2, embed_dim=8)
        params = random_params(cfg, rng)
        batch = _batch(cfg, [random_sequence(rng, 2000, 2, 400.0)])
        tracemalloc.start()
        try:
            objective_and_gradients(params, cfg, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_long_sequence_extrapolation_gradient_memory_bounded(self, rng):
        # the event attention runs in row blocks too: a whole (L, L) softmax
        # and its Jacobian took about 155 MB here
        cfg = ModelConfig(num_types=2, embed_dim=8, variant=VARIANT_EXTRAPOLATION)
        params = random_params(cfg, rng)
        batch = _batch(cfg, [random_sequence(rng, 2000, 2, 400.0)])
        tracemalloc.start()
        try:
            objective_and_gradients(params, cfg, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestCentralDifference:
    def test_exact_for_quadratics(self):
        vec = np.array([0.5, -1.2, 3.0])
        grad = central_difference(lambda v: float(v @ v), vec, 1e-4)
        assert np.allclose(grad, 2 * vec, atol=1e-9)

    def test_error_shrinks_with_eps(self):
        vec = np.linspace(-1.0, 2.0, 5)
        fn = lambda v: float(np.sum(np.sin(v)))
        exact = np.cos(vec)
        coarse = np.abs(central_difference(fn, vec, 1e-2) - exact).max()
        fine = np.abs(central_difference(fn, vec, 1e-4) - exact).max()
        assert fine < coarse
        # second-order accuracy: shrinking eps 100x cuts the error ~10^4x
        assert fine < coarse * 1e-3


def _pair_objective(params, cfg, seq, grid):
    return objective_and_gradients(params, cfg, [(seq, grid)])


@pytest.mark.parametrize(
    "fn",
    [log_likelihood, compensator, _pair_objective, intensity_trace, attention_matrix],
    ids=lambda fn: fn.__name__,
)
def test_a_grid_missing_an_event_time_raises_value_error(rng, fn):
    # the grid ends before the last event, is empty, or skips an interior event
    cfg = ModelConfig(num_types=2, embed_dim=4)
    params = random_params(cfg, rng)
    seq = EventSequence(times=[0.5, 2.0], types=[0, 1], horizon=3.0, num_types=2)
    for points in ([0.0, 0.5, 1.0], [], [0.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="grid does not contain every event time"):
            fn(params, cfg, seq, IntegrationGrid(points))


@pytest.mark.parametrize("variant", [VARIANT_ATTENTION, VARIANT_EXTRAPOLATION])
@pytest.mark.parametrize(
    "fn",
    [log_likelihood, compensator, _pair_objective, intensity_trace],
    ids=lambda fn: fn.__name__,
)
def test_event_times_on_a_grid_must_increase_strictly(rng, fn, variant):
    # a grid cache gives each event a node and an embedding row of its own
    cfg = ModelConfig(num_types=2, embed_dim=4, variant=variant)
    params = random_params(cfg, rng)
    cases = [([0.5, 1.0, 1.0, 2.0], DuplicateTimestamp), ([0.5, 2.0, 1.0, 2.5], NonMonotoneTimes)]
    for times, error in cases:
        seq = EventSequence(times=times, types=[0, 1, 1, 0], horizon=3.0, num_types=2)
        grid = IntegrationGrid(np.unique(np.concatenate([times, [0.0, 3.0]])))
        with pytest.raises(error) as err:
            fn(params, cfg, seq, grid)
        assert err.value.index == 2


class TestNonFiniteGuards:
    """Finite parameters whose likelihood or gradient overflows."""

    def test_an_overflowing_compensator_names_its_sequence(self):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = zeros_params(cfg)
        params.bias[:] = 1.7e308  # each intensity is finite, their integral over T=2 is not
        seq = EventSequence(times=[1.0], types=[0], horizon=2.0, num_types=1)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFinite, match="^sequence 0: compensator is inf"):
                log_likelihood(params, cfg, seq, make_grid(seq, 3))
            with pytest.raises(NonFinite, match="^sequence 0: compensator is inf"):
                objective_and_gradients(params, cfg, _batch(cfg, [seq]))

    def test_an_overflowing_grid_intensity_raises(self):
        # no events, so no event term catches it first: the skip term at t=0
        # reads z = [0, 1, 0, 1] against a readout of 1e308
        cfg = ModelConfig(num_types=1, embed_dim=4, skip_connection=True)
        params = zeros_params(cfg)
        params.readout[:] = 1e308
        seq = EventSequence(times=[], types=[], horizon=2.0, num_types=1)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFinite, match="^sequence 0: a grid intensity is non-finite"):
                log_likelihood(params, cfg, seq, make_grid(seq, 3))
            with pytest.raises(NonFinite, match="^sequence 0: a grid intensity is non-finite"):
                objective_and_gradients(params, cfg, _batch(cfg, [seq]))

    def test_an_overflowing_gradient_raises(self):
        # values near 1e308 read out through 1e-307 give finite intensities,
        # but the readout's gradient sums values over the events
        cfg = ModelConfig(num_types=1, embed_dim=2)
        params = zeros_params(cfg)
        params.type_embed[:] = 1.0
        params.value_proj[:] = 5e307
        params.readout[:] = 1e-307
        seq = EventSequence(times=[0.5, 1.0, 1.5, 1.8], types=[0] * 4, horizon=2.0, num_types=1)
        batch = _batch(cfg, [seq])
        with np.errstate(over="ignore"):
            assert math.isfinite(objective_value(params, cfg, batch))
            with pytest.raises(NonFinite, match="^gradient of readout has non-finite entries"):
                objective_and_gradients(params, cfg, batch)
