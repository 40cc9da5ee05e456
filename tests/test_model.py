import math
from dataclasses import replace

import numpy as np
import pytest

from attnhawkes import _forward, model
from attnhawkes._forward import SequenceCache
from attnhawkes.domain import EventSequence, make_grid
from attnhawkes.errors import (
    DegenerateAnchor,
    NoPriorEvent,
    NonCausalHistory,
    OddDimension,
    OutOfWindow,
)
from attnhawkes.model import (
    ROW_BLOCK_CELLS,
    SCORE_FLUSH,
    VARIANT_ATTENTION,
    VARIANT_EXTRAPOLATION,
    ModelConfig,
    ModelParams,
    _history_scores,
    _softmax_rows,
    _temporal_weights,
    attention_matrix,
    attention_weights,
    event_embedding,
    ex_intensity_at,
    flatten_params,
    intensity_all_types,
    intensity_at,
    param_shapes,
    perturb_param,
    temporal_embedding,
    trigger_contribution,
    type_embedding,
    unflatten_params,
    validate_params,
    zeros_params,
)
from attnhawkes.numerics import softplus
from attnhawkes.trainer import log_likelihood

from conftest import random_params, random_sequence


class TestTemporalEmbedding:
    def test_values_at_m4(self):
        # frequencies for M=4 are 10000^0 = 1 and 10000^{-1/2} = 0.01
        z = temporal_embedding(1.5, 4)
        expected = [math.sin(1.5), math.cos(1.5), math.sin(0.015), math.cos(0.015)]
        assert np.allclose(z, expected, rtol=1e-15)

    def test_zero_time(self):
        z = temporal_embedding(0.0, 6)
        assert np.array_equal(z, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_squared_norm_is_half_dimension(self):
        for m in (2, 8, 32):
            for t in (0.0, 0.37, 19.2, 1e4):
                assert np.dot(temporal_embedding(t, m), temporal_embedding(t, m)) == pytest.approx(
                    m / 2, rel=1e-12
                )

    def test_batched_shape(self):
        z = temporal_embedding(np.linspace(0, 5, 7), 8)
        assert z.shape == (7, 8)
        assert np.allclose(z[3], temporal_embedding(np.linspace(0, 5, 7)[3], 8))

    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimension):
            temporal_embedding(1.0, 5)
        with pytest.raises(OddDimension):
            temporal_embedding(1.0, 0)
        with pytest.raises(OddDimension):
            ModelConfig(num_types=2, embed_dim=7)

    def test_inner_product_depends_on_lag_only(self, rng):
        # sin/cos pairing makes z(t) . z(s) a function of t - s alone
        for _ in range(200):
            t, s, c = rng.uniform(0, 50, size=3)
            a = np.dot(temporal_embedding(t, 16), temporal_embedding(s, 16))
            b = np.dot(temporal_embedding(t + c, 16), temporal_embedding(s + c, 16))
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_inner_product_closed_form(self):
        m, t, s = 8, 3.2, 1.1
        freq = np.power(10000.0, -2.0 * np.arange(m // 2) / m)
        expected = np.sum(np.cos((t - s) * freq))
        got = np.dot(temporal_embedding(t, m), temporal_embedding(s, m))
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 32])
    def test_matches_the_two_temporary_formula_bitwise(self, m):
        def two_temporaries(t):
            t = np.asarray(t, dtype=np.float64)
            args = t[..., None] * np.power(10000.0, -2.0 * np.arange(m // 2) / m)
            out = np.empty(t.shape + (m,))
            out[..., 0::2] = np.sin(args)
            out[..., 1::2] = np.cos(args)
            return out

        times = np.array([0.0, 5e-324, 1e6, 2.0**52])
        # event_embedding passes a scalar; the caches pass 1-d arrays
        for t in [*times, times, times.reshape(2, 2)]:
            got, want = temporal_embedding(t, m), two_temporaries(t)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestEventEmbedding:
    def test_concatenation_layout(self, rng):
        cfg = ModelConfig(num_types=3, embed_dim=8)
        params = random_params(cfg, rng)
        x = event_embedding(params, cfg, 2.5, 1)
        assert x.shape == (16,)
        assert np.array_equal(x[:8], temporal_embedding(2.5, 8))
        assert np.array_equal(x[8:], type_embedding(params, 1))

    def test_dot_product_decomposition(self, rng):
        # x_i . x_j splits exactly into temporal and type parts
        cfg = ModelConfig(num_types=3, embed_dim=12)
        params = random_params(cfg, rng)
        for _ in range(100):
            ti, tj = rng.uniform(0, 30, size=2)
            ki, kj = rng.integers(0, 3, size=2)
            full = np.dot(
                event_embedding(params, cfg, ti, int(ki)), event_embedding(params, cfg, tj, int(kj))
            )
            parts = np.dot(temporal_embedding(ti, 12), temporal_embedding(tj, 12)) + np.dot(
                type_embedding(params, int(ki)), type_embedding(params, int(kj))
            )
            assert abs(full - parts) <= 1e-12 * max(1.0, abs(full))

    def test_score_shift_invariance(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=16)
        params = random_params(cfg, rng)
        for _ in range(100):
            ti, tj = np.sort(rng.uniform(0, 20, size=2))
            c = rng.uniform(0, 40)
            ki, kj = rng.integers(0, 2, size=2)
            a = attention_weights(params, cfg, tj + 1.0, int(kj), [ti], [ki])
            b = attention_weights(params, cfg, tj + 1.0 + c, int(kj), [ti + c], [ki])
            assert np.allclose(a, b)
            sa = np.dot(
                event_embedding(params, cfg, ti, int(ki)),
                event_embedding(params, cfg, tj, int(kj)),
            )
            sb = np.dot(
                event_embedding(params, cfg, ti + c, int(ki)),
                event_embedding(params, cfg, tj + c, int(kj)),
            )
            assert sa == pytest.approx(sb, rel=1e-9, abs=1e-9)


class TestAttentionWeights:
    def test_empty_history(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        assert attention_weights(params, cfg, 1.0, 0, [], []).shape == (0,)

    def test_single_event_gets_full_weight(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        a = attention_weights(params, cfg, 2.0, 0, [1.0], [1])
        assert a == pytest.approx([1.0])

    def test_duplicate_events_split_evenly(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=8)
        params = random_params(cfg, rng)
        a = attention_weights(params, cfg, 3.0, 1, [1.2, 1.2], [0, 0])
        assert a == pytest.approx([0.5, 0.5], rel=1e-12)

    def test_rows_normalize(self, rng):
        cfg = ModelConfig(num_types=3, embed_dim=8)
        params = random_params(cfg, rng)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            times = np.sort(rng.uniform(0, 5, size=n))
            types = rng.integers(0, 3, size=n)
            a = attention_weights(params, cfg, 6.0, 0, times, types)
            assert a.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(a >= 0)

    def test_non_causal_history_rejected(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        with pytest.raises(NonCausalHistory):
            attention_weights(params, cfg, 1.0, 0, [0.5, 1.0], [0, 0])
        with pytest.raises(NonCausalHistory):
            attention_weights(params, cfg, 1.0, 0, [1.5], [0])

    def test_far_tail_flushes_to_exact_zero(self):
        # type embeddings chosen so the type-1 event scores 200/sqrt(8) ~ 70
        # below the type-0 events, beyond the flush threshold of 50
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = zeros_params(cfg)
        params.type_embed[:, 0] = 5.0
        params.type_embed[:, 1] = -5.0
        a = attention_weights(params, cfg, 4.0, 0, [1.0, 2.0, 3.0], [0, 1, 0])
        assert a[1] == 0.0
        assert a.sum() == pytest.approx(1.0, abs=1e-12)
        assert 2.0 * 100.0 / math.sqrt(8.0) > SCORE_FLUSH


class TestTemporalWeights:
    @pytest.mark.parametrize("m", [2, 4, 32, 64, 256])
    def test_rows_normalize_to_the_masked_softmax(self, m):
        # times up to 1e6, grid rows before the first event (h = 0), and the
        # drop in h between the grid points and the right-limit copies
        rng = np.random.default_rng(m)
        times = np.sort(rng.uniform(1e3, 1e6, size=40))
        seq = EventSequence(times=times, types=np.zeros(40, int), horizon=1e6, num_types=1)
        cache = SequenceCache(ModelConfig(num_types=1, embed_dim=m), seq, make_grid(seq, 3))
        h = cache.h
        assert (h == 0).any() and (np.diff(h) < 0).any()
        scale = math.sqrt(2.0 * m)
        w = _temporal_weights(cache.z_gr, cache.z_ev / scale, h)
        norm = w.sum(axis=1, keepdims=True)
        softmax = _softmax_rows(_history_scores(cache.z_gr, cache.z_ev, h), 0.0, scale)
        assert np.abs(w / np.where(norm > 0.0, norm, 1.0) - softmax).max() <= 1e-14
        past = np.arange(len(times))[None, :] >= h[:, None]
        assert (w[past] == 0.0).all()
        # |z_q . z_j| <= M/2 bounds every scaled score by sqrt(M/8)
        bound = math.sqrt(m / 8.0)
        assert w[~past].min() >= math.exp(-bound) * (1.0 - 1e-12)
        assert w[~past].max() <= math.exp(bound) * (1.0 + 1e-12)

    @pytest.mark.parametrize("case", ["zeros", "full", "drop", "one_row", "cache_block"])
    def test_trimmed_mask_matches_the_full_mask_bitwise(self, case, monkeypatch):
        # only columns from h.min() on are compared; every column is compared here
        rng = np.random.default_rng(11)
        m, cols = 8, 9
        z_src = temporal_embedding(np.sort(rng.uniform(0.0, 50.0, size=cols)), m)
        z_q = temporal_embedding(rng.uniform(0.0, 60.0, size=6), m)
        h = {
            "zeros": np.zeros(6, dtype=np.int64),
            "full": np.full(6, cols),
            # grid rows, then right-limit copies whose history drops back
            "drop": np.array([5, 7, 9, 6, 7, 8]),
            "one_row": np.array([4]),
        }.get(case)
        if case == "one_row":
            z_q = z_q[:1]
        if case == "cache_block":
            monkeypatch.setattr(model, "ROW_BLOCK_CELLS", 64)
            seq = random_sequence(rng, 30, 1, 20.0)
            cache = SequenceCache(ModelConfig(num_types=1, embed_dim=m), seq, make_grid(seq, 3))
            lo, hi, cols = next(b for b in cache.blocks if 0 < cache.h[b[0] : b[1]].min() < b[2])
            z_q, z_src, h = cache.z_gr[lo:hi], cache.z_ev[:cols], cache.h[lo:hi]

        def full_mask(block, fill):
            block[np.arange(block.shape[1])[None, :] >= h[:, None]] = fill
            return block

        z_s = z_src / math.sqrt(2.0 * m)
        want = full_mask(np.exp(z_q @ z_s.T), 0.0)
        assert _temporal_weights(z_q, z_s, h).tobytes() == want.tobytes()
        want = full_mask(z_q @ z_src.T, -np.inf)
        assert _history_scores(z_q, z_src, h).tobytes() == want.tobytes()


class TestSequenceCacheEmbedding:
    """Each node time is embedded once, whatever the variant."""

    def embedded_rows(self, monkeypatch, cfg, seq, grid):
        rows = []

        def counting(t, out):
            rows.append(np.size(t))
            return embed_into(t, out)

        embed_into = model._embed_into
        monkeypatch.setattr(model, "_embed_into", counting)
        monkeypatch.setattr(_forward, "_embed_into", counting)
        return SequenceCache(cfg, seq, grid), rows

    def test_the_attention_grid_cache_embeds_its_grid_points_only(self, rng, monkeypatch):
        seq = random_sequence(rng, 12, 2, 9.0)
        grid = make_grid(seq, 10)
        cfg = ModelConfig(num_types=2, embed_dim=6)
        cache, rows = self.embedded_rows(monkeypatch, cfg, seq, grid)
        n_pts = len(grid)
        assert rows == [n_pts] and n_pts == 10 * len(seq) + 11
        # the right-limit copies are the tail of one slab, and are the event embeddings
        assert cache.z_gr.shape == (n_pts + len(seq), 6) == (len(cache.h), 6)
        assert cache.z_ev.base is cache.z_gr
        assert cache.z_ev.ctypes.data == cache.z_gr[n_pts:].ctypes.data
        assert cache.z_ev.tobytes() == temporal_embedding(seq.times, 6).tobytes()
        assert cache.z_gr[:n_pts].tobytes() == temporal_embedding(grid.times, 6).tobytes()

    @pytest.mark.parametrize(
        "variant, grid", [(VARIANT_EXTRAPOLATION, 10), (VARIANT_ATTENTION, None)]
    )
    def test_other_caches_embed_their_events_only(self, rng, monkeypatch, variant, grid):
        seq = random_sequence(rng, 12, 2, 9.0)
        cfg = ModelConfig(num_types=2, embed_dim=6, variant=variant)
        grid = None if grid is None else make_grid(seq, grid)
        cache, rows = self.embedded_rows(monkeypatch, cfg, seq, grid)
        assert rows == [len(seq)]
        assert cache.z_ev.tobytes() == temporal_embedding(seq.times, 6).tobytes()
        assert not hasattr(cache, "z_gr") or cache.z_gr is cache.z_ev


def _brute_intensity(params, cfg, seq, t, k):
    """Loop-based reference for the attention-variant intensity."""
    pre = params.bias[k]
    hist = [(ti, ki) for ti, ki in seq.events if ti < t]
    if hist:
        xq = event_embedding(params, cfg, t, k)
        scores = [
            np.dot(event_embedding(params, cfg, ti, ki), xq) / math.sqrt(2 * cfg.embed_dim)
            for ti, ki in hist
        ]
        w = np.exp(np.array(scores) - max(scores))
        w /= w.sum()
        for a_i, (ti, ki) in zip(w, hist):
            v = event_embedding(params, cfg, ti, ki) @ params.value_proj
            pre += a_i * np.dot(v, params.readout[k])
    return softplus(pre)


class TestIntensity:
    def test_matches_brute_force(self, rng):
        cfg = ModelConfig(num_types=3, embed_dim=8)
        params = random_params(cfg, rng)
        seq = random_sequence(rng, 15, 3, 10.0)
        for t in (0.0, 0.9, 4.2, 10.0):
            for k in range(3):
                assert intensity_at(params, cfg, seq, t, k) == pytest.approx(
                    _brute_intensity(params, cfg, seq, t, k), rel=1e-10
                )

    def test_empty_history_is_bias_rate(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[5.0], types=[0], horizon=10.0, num_types=2)
        assert intensity_at(params, cfg, seq, 2.0, 1) == pytest.approx(
            softplus(params.bias[1]), rel=1e-12
        )
        zero_seq = EventSequence(times=[], types=[], horizon=10.0, num_types=2)
        assert intensity_at(zeros_params(cfg), cfg, zero_seq, 3.0, 0) == pytest.approx(
            math.log(2.0), rel=1e-14
        )

    def test_history_is_strictly_prior(self, rng):
        # an event exactly at the query time must not contribute
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        a = EventSequence(times=[1.0, 3.0], types=[0, 1], horizon=10.0, num_types=2)
        b = EventSequence(times=[1.0], types=[0], horizon=10.0, num_types=2)
        assert intensity_at(params, cfg, a, 3.0, 0) == intensity_at(params, cfg, b, 3.0, 0)

    def test_future_events_do_not_matter(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        a = EventSequence(times=[1.0, 2.0, 7.0], types=[0, 1, 0], horizon=10.0, num_types=2)
        b = EventSequence(times=[1.0, 2.0, 9.5], types=[0, 1, 1], horizon=10.0, num_types=2)
        assert intensity_at(params, cfg, a, 5.0, 1) == intensity_at(params, cfg, b, 5.0, 1)

    def test_out_of_window(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0], types=[0], horizon=10.0, num_types=2)
        with pytest.raises(OutOfWindow):
            intensity_at(params, cfg, seq, -0.1, 0)
        with pytest.raises(OutOfWindow):
            intensity_at(params, cfg, seq, 10.5, 0)

    def test_wrong_variant_rejected(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4, variant=VARIANT_EXTRAPOLATION)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0], types=[0], horizon=10.0, num_types=2)
        with pytest.raises(ValueError):
            intensity_at(params, cfg, seq, 2.0, 0)

    def test_skip_connection_adds_query_readout(self, rng):
        base_cfg = ModelConfig(num_types=2, embed_dim=8)
        skip_cfg = ModelConfig(num_types=2, embed_dim=8, skip_connection=True)
        params = random_params(base_cfg, rng)
        seq = random_sequence(rng, 6, 2, 10.0)
        t, k = 7.0, 1
        plain = intensity_at(params, base_cfg, seq, t, k)
        skipped = intensity_at(params, skip_cfg, seq, t, k)
        extra = np.dot(event_embedding(params, skip_cfg, t, k), params.readout[k])
        from attnhawkes.numerics import softplus_inv

        assert softplus_inv(skipped) - softplus_inv(plain) == pytest.approx(extra, rel=1e-9)

    def test_skip_connection_needs_matching_value_dim(self):
        with pytest.raises(ValueError):
            ModelConfig(num_types=2, embed_dim=8, value_dim=4, skip_connection=True)


class TestTriggerContribution:
    def test_sum_reconstructs_intensity(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=8)
        params = random_params(cfg, rng)
        seq = random_sequence(rng, 10, 2, 10.0)
        t, k = 8.5, 0
        prior = [i for i in range(len(seq)) if seq.times[i] < t]
        total = sum(trigger_contribution(params, cfg, seq, i, t, k) for i in prior)
        assert softplus(total + params.bias[k]) == pytest.approx(
            intensity_at(params, cfg, seq, t, k), rel=1e-12
        )

    def test_rejects_future_event_index(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0, 6.0], types=[0, 1], horizon=10.0, num_types=2)
        with pytest.raises(NonCausalHistory):
            trigger_contribution(params, cfg, seq, 1, 3.0, 0)
        with pytest.raises(IndexError):
            trigger_contribution(params, cfg, seq, 5, 3.0, 0)


class TestExtrapolationVariant:
    def cfg(self):
        return ModelConfig(num_types=2, embed_dim=8, variant=VARIANT_EXTRAPOLATION)

    def test_no_prior_event_raises(self, rng):
        cfg = self.cfg()
        params = random_params(cfg, rng)
        seq = EventSequence(times=[2.0], types=[0], horizon=10.0, num_types=2)
        with pytest.raises(NoPriorEvent):
            ex_intensity_at(params, cfg, seq, 1.0, 0)
        # the event itself is not its own anchor
        with pytest.raises(NoPriorEvent):
            ex_intensity_at(params, cfg, seq, 2.0, 0)

    def test_degenerate_anchor_at_origin(self, rng):
        cfg = self.cfg()
        params = random_params(cfg, rng)
        seq = EventSequence(times=[0.0, 4.0], types=[0, 1], horizon=10.0, num_types=2)
        with pytest.raises(DegenerateAnchor):
            ex_intensity_at(params, cfg, seq, 2.0, 0)
        with pytest.raises(DegenerateAnchor):
            log_likelihood(params, cfg, seq, make_grid(seq, 3))

    def test_linear_in_relative_elapsed_time(self, rng):
        # pre-activation is affine in (t - t_a) / t_a between events
        cfg = self.cfg()
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0, 2.0], types=[0, 1], horizon=10.0, num_types=2)
        from attnhawkes.numerics import softplus_inv

        t_a = 2.0
        pres = {
            t: softplus_inv(ex_intensity_at(params, cfg, seq, t, 0)) for t in (3.0, 5.0, 7.0)
        }
        slope01 = (pres[5.0] - pres[3.0]) / ((5.0 - 3.0) / t_a)
        slope12 = (pres[7.0] - pres[5.0]) / ((7.0 - 5.0) / t_a)
        assert slope01 == pytest.approx(slope12, rel=1e-8)
        assert slope01 == pytest.approx(params.extrap_coef[0], rel=1e-8)

    def test_anchor_switches_at_events(self, rng):
        cfg = self.cfg()
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0, 5.0], types=[0, 1], horizon=10.0, num_types=2)
        before = ex_intensity_at(params, cfg, seq, 4.999, 0)
        after = ex_intensity_at(params, cfg, seq, 5.001, 0)
        # generically discontinuous: the anchor jumps from t=1 to t=5
        assert before != after

    def test_all_types_dispatch(self, rng):
        cfg = self.cfg()
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0, 5.0], types=[0, 1], horizon=10.0, num_types=2)
        lam = intensity_all_types(params, cfg, seq, 7.0)
        assert lam == pytest.approx(
            [ex_intensity_at(params, cfg, seq, 7.0, k) for k in range(2)]
        )
        # before the first event every type falls back to the bias rate
        early = intensity_all_types(params, cfg, seq, 0.5)
        assert early == pytest.approx(softplus(params.bias))

    def test_attention_variant_dispatch(self, rng):
        cfg = ModelConfig(num_types=3, embed_dim=4)
        params = random_params(cfg, rng)
        seq = random_sequence(rng, 8, 3, 10.0)
        lam = intensity_all_types(params, cfg, seq, 6.0)
        assert lam == pytest.approx(
            [intensity_at(params, cfg, seq, 6.0, k) for k in range(3)]
        )


class TestAttentionMatrix:
    def build(self, rng, times, types, horizon=10.0, subdivisions=3):
        cfg = ModelConfig(num_types=2, embed_dim=8)
        params = random_params(cfg, rng)
        seq = EventSequence(times=times, types=types, horizon=horizon, num_types=2)
        grid = make_grid(seq, subdivisions)
        return attention_matrix(params, cfg, seq, grid), seq, grid

    def test_structural_zeros(self, rng):
        amap, seq, grid = self.build(rng, [1.0, 4.0, 7.0], [0, 1, 0])
        n = len(amap.times)
        assert amap.matrix.shape == (n, n)
        # upper triangle including the diagonal is exactly zero
        assert np.array_equal(np.triu(amap.matrix), np.zeros((n, n)))
        # non-event columns are exactly zero
        assert np.array_equal(amap.matrix[:, ~amap.is_event], np.zeros((n, (~amap.is_event).sum())))

    def test_rows_sum_to_one_after_first_event(self, rng):
        amap, seq, grid = self.build(rng, [1.0, 4.0, 7.0], [0, 1, 0])
        sums = amap.matrix.sum(axis=1)
        nonempty = amap.times > seq.times[0]
        assert np.allclose(sums[nonempty], 1.0, atol=1e-9)
        assert np.array_equal(sums[~nonempty], np.zeros((~nonempty).sum()))

    def test_event_rows_match_attention_weights(self, rng, monkeypatch):
        # every row, over more than one row block, against the pointwise
        # oracle: event rows, grid rows with the modal query type, and K=4;
        # type embeddings scaled by 12 spread the type-pair scores far
        # enough to force the flush
        first = EventSequence(times=[1.0, 4.0, 7.0], types=[0, 1, 0], horizon=10.0, num_types=2)
        cases = [
            (2, 1.0, first),
            (4, 1.0, random_sequence(rng, 30, 4, 10.0)),
            (2, 12.0, random_sequence(rng, 30, 2, 10.0)),
        ]
        for k, embed_scale, seq in cases:
            cfg = ModelConfig(num_types=k, embed_dim=8)
            params = random_params(cfg, rng)
            params = replace(params, type_embed=params.type_embed * embed_scale)
            # at the default budget these grids are one block; 64 cells split them
            for cells in (ROW_BLOCK_CELLS, 64):
                monkeypatch.setattr(model, "ROW_BLOCK_CELLS", cells)
                amap = attention_matrix(params, cfg, seq, make_grid(seq, 3))
                modal = int(np.argmax(np.bincount(seq.types, minlength=k)))
                cols = np.searchsorted(amap.times, seq.times)
                assert np.array_equal(amap.is_event, np.isin(amap.times, seq.times))
                flushed = 0
                for row, t in enumerate(amap.times):
                    h = int(np.searchsorted(seq.times, t))
                    query_type = int(seq.types[h]) if amap.is_event[row] else modal
                    assert amap.query_types[row] == query_type
                    expected = np.zeros(len(amap.times))
                    expected[cols[:h]] = attention_weights(
                        params, cfg, float(t), query_type, seq.times[:h], seq.types[:h]
                    )
                    assert np.allclose(amap.matrix[row], expected, rtol=0.0, atol=1e-12)
                    flushed += int((expected[cols[:h]] == 0.0).sum())
                assert (flushed > 0) == (embed_scale > 1.0)

    def test_empty_sequence(self, rng):
        amap, seq, grid = self.build(rng, [], [])
        assert np.array_equal(amap.matrix, np.zeros_like(amap.matrix))
        assert not amap.is_event.any()


class TestParamHelpers:
    @pytest.mark.parametrize("variant", [VARIANT_ATTENTION, VARIANT_EXTRAPOLATION])
    def test_flatten_round_trip(self, rng, variant):
        cfg = ModelConfig(num_types=3, embed_dim=6, variant=variant)
        params = random_params(cfg, rng)
        vec = flatten_params(params, cfg)
        back = unflatten_params(vec, cfg)
        for name, shape in param_shapes(cfg).items():
            assert np.array_equal(getattr(back, name), getattr(params, name))
            assert getattr(back, name).shape == shape
        validate_params(back, cfg)

    def test_flatten_sizes(self):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        # type_embed 4x2 + value_proj 8x8 + readout 2x8 + bias 2
        assert flatten_params(zeros_params(cfg), cfg).size == 8 + 64 + 16 + 2

    def test_unflatten_size_mismatch(self):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        with pytest.raises(ValueError):
            unflatten_params(np.zeros(17), cfg)

    def test_perturb_param_is_a_copy(self, rng):
        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        before = params.readout.copy()
        shifted = perturb_param(params, "readout", (1, 3), 0.25)
        assert shifted.readout[1, 3] == pytest.approx(before[1, 3] + 0.25)
        assert np.array_equal(params.readout, before)

    def test_validate_missing_extra_fields(self):
        cfg = ModelConfig(num_types=2, embed_dim=4, variant=VARIANT_EXTRAPOLATION)
        base_only = zeros_params(ModelConfig(num_types=2, embed_dim=4))
        with pytest.raises(ValueError):
            validate_params(base_only, cfg)

    def test_config_defaults(self):
        cfg = ModelConfig(num_types=2, embed_dim=10)
        assert cfg.value_dim == 20
        assert cfg.hidden_dim == 10
        with pytest.raises(ValueError):
            ModelConfig(num_types=0, embed_dim=4)
        with pytest.raises(ValueError):
            ModelConfig(num_types=2, embed_dim=4, variant="rnn")
