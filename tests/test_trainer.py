import gc
import hashlib
import io
import json
import math
import weakref

import numpy as np
import pytest

from attnhawkes import trainer
from attnhawkes._forward import SequenceCache
from attnhawkes.domain import Dataset, EventSequence, make_grid, split_dataset
from attnhawkes.errors import Diverged, EmptySplit, NonFinite
from attnhawkes.model import (
    VARIANT_ATTENTION,
    VARIANT_EXTRAPOLATION,
    ModelConfig,
    flatten_params,
    temporal_embedding,
    zeros_params,
)
from attnhawkes.numerics import softplus, softplus_inv
from attnhawkes.simulator import EXPONENTIAL, HawkesSpec, simulate_dataset
from attnhawkes.trainer import (
    RATE_FLOOR,
    TrainConfig,
    _split_tll,
    compensator,
    empirical_rates,
    event_term,
    init_params,
    log_likelihood,
    train,
)

from conftest import random_params, random_sequence


def _poisson_dataset(n, horizon=10.0, mu=0.5, seed=3):
    spec = HawkesSpec(mu=[mu], kernel=EXPONENTIAL, alpha=[[0.0]], beta=[[1.0]])
    return simulate_dataset(spec, horizon, n, seed=seed)


class TestLikelihoodTerms:
    def test_constant_model_closed_form(self, rng):
        # zero weights give a constant intensity, so both likelihood terms
        # have exact values: n log softplus(b) and K softplus(b) T
        cfg = ModelConfig(num_types=3, embed_dim=4)
        params = zeros_params(cfg)
        params.bias[:] = [0.1, -0.4, 0.8]
        seq = random_sequence(rng, 7, 3, 12.0)
        grid = make_grid(seq, 4)
        expected_events = sum(
            np.sum(seq.types == k) * math.log(softplus(params.bias[k])) for k in range(3)
        )
        assert event_term(params, cfg, seq) == pytest.approx(expected_events, rel=1e-13)
        assert compensator(params, cfg, seq, grid) == pytest.approx(
            softplus(params.bias).sum() * 12.0, rel=1e-13
        )
        assert log_likelihood(params, cfg, seq, grid) == pytest.approx(
            expected_events - softplus(params.bias).sum() * 12.0, rel=1e-12
        )

    def test_compensator_second_order_convergence(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=8)
        params = random_params(cfg, rng)
        seq = random_sequence(rng, 12, 2, 10.0)
        ref = compensator(params, cfg, seq, make_grid(seq, 512))
        err8 = abs(compensator(params, cfg, seq, make_grid(seq, 8)) - ref)
        err16 = abs(compensator(params, cfg, seq, make_grid(seq, 16)) - ref)
        assert err16 < err8
        assert err8 / err16 > 3.0  # trapezoid error shrinks ~4x per doubling

    def test_event_term_underflow_raises(self):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = zeros_params(cfg)
        params.bias[:] = -800.0
        seq = EventSequence(times=[1.0], types=[0], horizon=2.0, num_types=1)
        with pytest.raises(NonFinite):
            event_term(params, cfg, seq)

    def test_log_likelihood_names_the_sequence(self):
        # the one likelihood loop names its sequence, here the only one
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = zeros_params(cfg)
        params.bias[:] = -800.0
        seq = EventSequence(times=[1.0], types=[0], horizon=2.0, num_types=1)
        with pytest.raises(NonFinite, match="^sequence 0: an event intensity"):
            log_likelihood(params, cfg, seq, make_grid(seq, 3))


class TestSplitTll:
    def split_with_a_bad_sequence(self):
        # bias -800 makes a type-1 event's intensity zero, so only sequence 2 fails
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = zeros_params(cfg)
        params.bias[:] = [0.1, -800.0]
        good = EventSequence(times=[1.0, 2.0], types=[0, 0], horizon=3.0, num_types=2)
        bad = EventSequence(times=[1.0], types=[1], horizon=3.0, num_types=2)
        return params, cfg, [good, good, bad]

    def test_a_non_finite_validation_term_names_its_sequence(self):
        from attnhawkes.evaluate import test_tll

        params, cfg, seqs = self.split_with_a_bad_sequence()
        caches = [SequenceCache(cfg, s, make_grid(s, 3)) for s in seqs]
        with pytest.raises(NonFinite, match="^sequence 2: an event intensity"):
            _split_tll(params, cfg, caches)
        with pytest.raises(NonFinite, match="^sequence 2: an event intensity"):
            test_tll(params, cfg, seqs, 3)

    def test_a_generator_of_caches_is_held_one_cache_at_a_time(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        seqs = [random_sequence(rng, n, 2, 8.0) for n in (5, 0, 9, 3)]
        refs, alive = [], []

        def build(seq):
            # how many earlier caches are still alive when the next is built
            alive.append(sum(ref() is not None for ref in refs))
            cache = SequenceCache(cfg, seq, make_grid(seq, 3))
            refs.append(weakref.ref(cache))
            return cache

        got = _split_tll(params, cfg, (build(s) for s in seqs))
        assert alive == [0, 0, 0, 0]
        assert got == _split_tll(params, cfg, [build(s) for s in seqs])


class TestEmpiricalRates:
    def test_counts_over_time(self):
        a = EventSequence(times=[1.0, 2.0, 3.0], types=[0, 0, 1], horizon=10.0, num_types=2)
        b = EventSequence(times=[4.0], types=[1], horizon=30.0, num_types=2)
        assert empirical_rates([a, b], 2) == pytest.approx([2 / 40, 2 / 40])

    def test_empty(self):
        assert np.array_equal(empirical_rates([], 2), np.zeros(2))


class TestInitParams:
    def test_bias_matches_empirical_rates(self):
        cfg = ModelConfig(num_types=2, embed_dim=8)
        seqs = [
            EventSequence(times=[1.0, 2.0], types=[0, 0], horizon=10.0, num_types=2),
        ]
        params = init_params(cfg, seqs, seed=0)
        assert params.bias[0] == pytest.approx(softplus_inv(0.2), rel=1e-12)
        # absent type floors at RATE_FLOOR instead of -inf
        assert params.bias[1] == pytest.approx(softplus_inv(RATE_FLOOR), rel=1e-12)

    def test_seed_controls_weights(self):
        cfg = ModelConfig(num_types=2, embed_dim=8, variant=VARIANT_EXTRAPOLATION)
        seqs = [EventSequence(times=[1.0], types=[0], horizon=5.0, num_types=2)]
        a = init_params(cfg, seqs, seed=4)
        b = init_params(cfg, seqs, seed=4)
        c = init_params(cfg, seqs, seed=5)
        assert np.array_equal(flatten_params(a, cfg), flatten_params(b, cfg))
        assert not np.array_equal(flatten_params(a, cfg), flatten_params(c, cfg))

    def test_extrapolation_extras_start_inert(self):
        cfg = ModelConfig(num_types=2, embed_dim=4, variant=VARIANT_EXTRAPOLATION)
        seqs = [EventSequence(times=[1.0], types=[0], horizon=5.0, num_types=2)]
        params = init_params(cfg, seqs, seed=0)
        assert np.array_equal(params.extrap_coef, np.zeros(2))
        assert np.array_equal(params.mlp_b1, np.zeros(cfg.hidden_dim))
        assert np.array_equal(params.mlp_b2, np.zeros(cfg.embed_dim))

    @pytest.mark.parametrize(
        "variant,dims,digest",
        [
            ("ithp", {}, "6bee134c7ebd5158bd67949844819cdd707611a89ac90df226654a894c5e268f"),
            (
                "ithp",
                {"value_dim": 6},
                "96e64b7379c5cef0eb44b657020205411300bc61cc0aa747853fd079f3244955",
            ),
            (
                VARIANT_EXTRAPOLATION,
                {},
                "ec5aa3df9d58593cdbf35593884f6faaac213acb4db0c3e43da8a2dd05d544fc",
            ),
            (
                VARIANT_EXTRAPOLATION,
                {"value_dim": 6, "hidden_dim": 3},
                "fb1b41bb224539aeebdf35f278fdce1a7dd5aa8ad14a00229392a3e5affa3346",
            ),
        ],
    )
    def test_draws_are_pinned(self, variant, dims, digest):
        # the sha256 of the flat parameters pins the draw order, the fan-ins and the zeros
        cfg = ModelConfig(num_types=2, embed_dim=4, variant=variant, **dims)
        seqs = [EventSequence(times=[0.5, 1.0, 2.5], types=[0, 1, 0], horizon=3.0, num_types=2)]
        params = init_params(cfg, seqs, seed=7)
        assert hashlib.sha256(flatten_params(params, cfg).tobytes()).hexdigest() == digest


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=-1)


class TestTrain:
    def small_dataset(self):
        ds = _poisson_dataset(12, horizon=10.0, mu=0.8, seed=3)
        return split_dataset(ds, (0.5, 0.25, 0.25), seed=3)

    def test_zero_epochs_returns_initialization(self):
        ds = self.small_dataset()
        cfg = ModelConfig(num_types=1, embed_dim=4)
        tc = TrainConfig(max_epochs=0)
        params, report = train(ds, cfg, tc)
        assert report.epochs_run == 0
        assert report.best_epoch == -1
        expected = init_params(cfg, ds.train, tc.seed)
        assert np.array_equal(flatten_params(params, cfg), flatten_params(expected, cfg))

    def test_zero_learning_rate_stops_after_patience(self):
        ds = self.small_dataset()
        cfg = ModelConfig(num_types=1, embed_dim=4)
        tc = TrainConfig(learning_rate=0.0, max_epochs=50, patience=3, batch_size=4)
        params, report = train(ds, cfg, tc)
        # first epoch improves on -inf, then the stalled value never does
        assert report.epochs_run == 1 + tc.patience
        assert report.best_epoch == 0
        assert len(set(report.val_tlls)) == 1
        expected = init_params(cfg, ds.train, tc.seed)
        assert np.array_equal(flatten_params(params, cfg), flatten_params(expected, cfg))

    def test_training_improves_validation(self):
        ds = self.small_dataset()
        cfg = ModelConfig(num_types=1, embed_dim=4)
        tc = TrainConfig(learning_rate=1e-2, max_epochs=10, patience=10, batch_size=4)
        params, report = train(ds, cfg, tc)
        assert max(report.val_tlls) > report.val_tlls[0] - 1e-9
        assert report.epochs_run == 10

    def test_returned_params_attain_best_validation(self):
        from attnhawkes.evaluate import test_tll

        ds = self.small_dataset()
        cfg = ModelConfig(num_types=1, embed_dim=4)
        tc = TrainConfig(learning_rate=1e-2, max_epochs=8, patience=8, batch_size=4)
        params, report = train(ds, cfg, tc)
        got = test_tll(params, cfg, ds.val, grid_subdivisions=tc.grid_subdivisions)
        assert got == pytest.approx(max(report.val_tlls), rel=1e-12)
        assert report.val_tlls[report.best_epoch] == max(report.val_tlls)

    @pytest.mark.parametrize("variant", [VARIANT_ATTENTION, VARIANT_EXTRAPOLATION])
    def test_best_validation_is_the_test_tll_of_the_returned_params(self, variant):
        from attnhawkes.evaluate import test_tll

        ds = self.small_dataset()
        cfg = ModelConfig(num_types=1, embed_dim=4, variant=variant, grid_subdivisions=4)
        tc = TrainConfig(
            learning_rate=1e-2, max_epochs=5, patience=5, batch_size=4, grid_subdivisions=4
        )
        params, report = train(ds, cfg, tc)
        # one per-event likelihood serves the validation pass and test_tll
        got = test_tll(params, cfg, ds.val, cfg.grid_subdivisions)
        assert got == report.val_tlls[report.best_epoch]

    def test_caches_share_one_arena_that_is_freed_on_return(self, monkeypatch):
        ds = self.small_dataset()
        cfg = ModelConfig(num_types=1, embed_dim=4, grid_subdivisions=4)
        tc = TrainConfig(
            learning_rate=1e-2, max_epochs=2, patience=2, batch_size=4, grid_subdivisions=4
        )
        arena, shape, seen = [], [], set()

        def inspect(caches):
            # no cache or array is kept past the call, so only train holds the arena
            caches = list(caches)
            for c in caches:
                if not arena:
                    arena.append(weakref.ref(c.z_gr.base))
                    shape.append(c.z_gr.base.shape)
                assert c.z_gr.base is arena[0]()
                n_pts = len(c.grid)
                assert c.z_ev.base is arena[0]()
                assert c.z_ev.ctypes.data == c.z_gr[n_pts:].ctypes.data
                assert c.z_ev.tobytes() == temporal_embedding(c.times, cfg.embed_dim).tobytes()
                seen.add(id(c))
            return caches

        gradients, split_tll = trainer._gradients_cached, trainer._split_tll
        monkeypatch.setattr(
            trainer, "_gradients_cached", lambda p, c, caches: gradients(p, c, inspect(caches))
        )
        monkeypatch.setattr(
            trainer, "_split_tll", lambda p, c, caches: split_tll(p, c, inspect(caches))
        )
        train(ds, cfg, tc)
        seqs = ds.train + ds.val
        assert len(seen) == len(seqs)
        rows = sum(len(make_grid(s, 4)) + len(s) for s in seqs)
        assert shape == [(rows, cfg.embed_dim)]
        gc.collect()
        assert arena[0]() is None

    def test_refuses_a_grid_other_than_the_model_grid(self):
        # the model is saved with, and evaluated on, the grid of its config
        ds = self.small_dataset()
        cfg = ModelConfig(num_types=1, embed_dim=4, grid_subdivisions=10)
        for max_epochs in (0, 2):
            tc = TrainConfig(max_epochs=max_epochs, grid_subdivisions=3)
            with pytest.raises(ValueError, match="grid_subdivisions"):
                train(ds, cfg, tc)

    def test_refuses_the_skip_connection_for_the_extrapolation_variant(self):
        # the flag is inert for that variant, so a saved model would misstate it
        ds = self.small_dataset()
        for max_epochs in (0, 2):
            with pytest.raises(ValueError, match="attention variant"):
                cfg = ModelConfig(
                    num_types=1, embed_dim=4, variant=VARIANT_EXTRAPOLATION, skip_connection=True
                )
                train(ds, cfg, TrainConfig(max_epochs=max_epochs))

    def test_deterministic_under_seed(self):
        ds = self.small_dataset()
        cfg = ModelConfig(num_types=1, embed_dim=4)
        tc = TrainConfig(learning_rate=1e-2, max_epochs=4, patience=4, batch_size=2)
        a, _ = train(ds, cfg, tc)
        b, _ = train(ds, cfg, tc)
        assert np.array_equal(flatten_params(a, cfg), flatten_params(b, cfg))

    def test_log_stream_records(self):
        ds = self.small_dataset()
        cfg = ModelConfig(num_types=1, embed_dim=4)
        tc = TrainConfig(learning_rate=1e-2, max_epochs=3, patience=3, batch_size=4)
        stream = io.StringIO()
        _, report = train(ds, cfg, tc, log_stream=stream)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [r["epoch"] for r in lines] == [1, 2, 3]
        assert [r["val_tll"] for r in lines] == report.val_tlls
        assert all(r["seconds"] >= 0 for r in lines)

    def test_divergence_detected(self):
        ds = self.small_dataset()
        cfg = ModelConfig(num_types=1, embed_dim=4)
        tc = TrainConfig(learning_rate=1e5, max_epochs=50, patience=50, batch_size=2)
        with pytest.raises(Diverged):
            train(ds, cfg, tc)

    def test_empty_train_split(self):
        ds = Dataset(train=(), val=(), test=(), num_types=1)
        with pytest.raises(EmptySplit):
            train(ds, ModelConfig(num_types=1, embed_dim=4), TrainConfig())

    def test_empty_val_split(self):
        seq = EventSequence(times=[1.0], types=[0], horizon=5.0, num_types=1)
        ds = Dataset(train=(seq,), val=(), test=(), num_types=1)
        with pytest.raises(EmptySplit):
            train(ds, ModelConfig(num_types=1, embed_dim=4), TrainConfig(max_epochs=2))
        # a zero-epoch run never consults the validation split
        params, report = train(
            ds, ModelConfig(num_types=1, embed_dim=4), TrainConfig(max_epochs=0)
        )
        assert report.epochs_run == 0
