"""One row-block plan serves grid attention, the probe pass, ``attention_matrix``
and the extrapolation variant's event attention.

Every row-blocked pass splits its query rows with ``model._row_blocks``.
Shrinking ``ROW_BLOCK_CELLS`` moves every block boundary, so each output is
compared at tiny budgets with the default budget and with the pointwise oracle.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnhawkes import model
from attnhawkes._forward import SequenceCache, event_pre_all_types, forward
from attnhawkes.diff import objective_and_gradients
from attnhawkes.domain import EventSequence, make_grid
from attnhawkes.errors import NonFinite
from attnhawkes.evaluate import intensity_trace, recover_kernel
from attnhawkes.model import (
    VARIANT_EXTRAPOLATION,
    ModelConfig,
    _history_scores,
    _row_blocks,
    _softmax_rows,
    attention_matrix,
    attention_weights,
    intensity_all_types,
    temporal_embedding,
)
from attnhawkes.numerics import softplus
from attnhawkes.trainer import log_likelihood

from conftest import random_params
from test_evaluate import _oracle_kernels

BUDGETS = (1, 7, 64)
TAUS = np.array([0.3, 1.0, 2.5])


@contextmanager
def _budget(cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "ROW_BLOCK_CELLS", cells)
        yield


def _outputs(params, cfg, seq, grid):
    """Every row-blocked output, or the class it raises."""
    calls = {
        "log_likelihood": lambda: log_likelihood(params, cfg, seq, grid),
        "gradient": lambda: objective_and_gradients(params, cfg, [(seq, grid)]),
        "trace": lambda: intensity_trace(params, cfg, seq, grid).values,
        "event_pre": lambda: event_pre_all_types(params, cfg, SequenceCache(cfg, seq)),
        "attention": lambda: attention_matrix(params, cfg, seq, grid).matrix,
    }
    if len(seq):
        calls["kernel"] = lambda: recover_kernel(
            params, cfg, [seq], int(seq.types[0]), cfg.num_types - 1, TAUS
        ).phi
    out = {}
    for name, call in calls.items():
        try:
            value = call()
        except NonFinite as err:
            value = type(err)
        if name == "gradient" and not isinstance(value, type):
            out["objective"] = value.objective
            value = value.as_vector(cfg)
        out[name] = value
    return out


def _assert_close(got, want, rel=1e-12):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rel * np.abs(want).max(initial=0.0)


def _check_oracle(params, cfg, seq, grid, out):
    if not isinstance(out["trace"], type):
        oracle = [intensity_all_types(params, cfg, seq, float(t)) for t in grid.times]
        assert np.allclose(out["trace"], oracle, rtol=1e-12, atol=0.0)
    if not isinstance(out["event_pre"], type):
        oracle = [intensity_all_types(params, cfg, seq, float(t)) for t in seq.times]
        oracle = np.reshape(oracle, (len(seq), cfg.num_types))
        assert np.allclose(softplus(out["event_pre"]), oracle, rtol=1e-12, atol=0.0)
    cols = np.searchsorted(grid.times, seq.times)
    modal = int(np.argmax(np.bincount(seq.types, minlength=cfg.num_types))) if len(seq) else 0
    for row, t in enumerate(grid.times):
        h = int(np.searchsorted(seq.times, t))
        query_type = int(seq.types[h]) if h < len(seq) and seq.times[h] == t else modal
        expected = np.zeros(len(grid.times))
        expected[cols[:h]] = attention_weights(
            params, cfg, float(t), query_type, seq.times[:h], seq.types[:h]
        )
        assert np.allclose(out["attention"][row], expected, rtol=0.0, atol=1e-12)
    if "kernel" in out and not isinstance(out["kernel"], type):
        # where the oracle flushes a pair to 0, the pass reads e.g. 6e-31, so the
        # error is measured against the largest value of any pair
        oracle = _oracle_kernels(params, cfg, [seq], TAUS)
        expected = oracle[seq.types[0], cfg.num_types - 1]
        assert np.abs(out["kernel"] - expected).max() <= 1e-12 * np.abs(oracle).max()


@given(
    num_types=st.integers(1, 4),
    skip=st.booleans(),
    length=st.sampled_from([0, 1, 9, 40]),
    embed_scale=st.sampled_from([1.0, 12.0]),
    at_ends=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_every_budget_matches_default_and_oracle(
    num_types, skip, length, embed_scale, at_ends, seed
):
    # events at 0 and T put grid nodes on the window's ends; every event is a
    # grid node, and x12 type embeddings force the oracle's flush
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(num_types=num_types, embed_dim=4, grid_subdivisions=3, skip_connection=skip)
    params = random_params(cfg, rng)
    params.type_embed[:] *= embed_scale
    times = np.sort(rng.uniform(0.0, 5.0, size=length))
    if at_ends and length:
        times[0] = 0.0
        if length > 1:
            times[-1] = 5.0
    types = rng.integers(0, num_types, size=length)
    seq = EventSequence(times=times, types=types, horizon=5.0, num_types=num_types)
    grid = make_grid(seq, cfg.grid_subdivisions)
    default = _outputs(params, cfg, seq, grid)
    for cells in BUDGETS:
        with _budget(cells):
            small = _outputs(params, cfg, seq, grid)
        assert small.keys() == default.keys()
        for name, value in small.items():
            _assert_close(value, default[name], rel=1e-13 if name == "objective" else 1e-12)
        _check_oracle(params, cfg, seq, grid, small)


def _extrapolation_outputs(params, cfg, seq, grid):
    """Every ex-ithp output that runs the blocked event softmax, or the class it raises."""
    calls = {
        "log_likelihood": lambda: log_likelihood(params, cfg, seq, grid),
        "gradient": lambda: objective_and_gradients(params, cfg, [(seq, grid)]).as_vector(cfg),
        "trace": lambda: intensity_trace(params, cfg, seq, grid).values,
        "event_pre": lambda: event_pre_all_types(params, cfg, SequenceCache(cfg, seq)),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except NonFinite as err:
            out[name] = type(err)
    return out


@given(
    num_types=st.integers(1, 3),
    length=st.sampled_from([0, 1, 2, 9, 40]),
    embed_scale=st.sampled_from([1.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_types=2, length=0, embed_scale=1.0, seed=0)
@example(num_types=3, length=1, embed_scale=5.0, seed=0)
@settings(max_examples=30, deadline=None)
def test_extrapolation_every_budget_matches_default_and_oracle(
    num_types, length, embed_scale, seed
):
    # each event attends over its predecessors with its own type, in row blocks
    # of the same plan; the trace is checked against the pointwise oracle
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(
        num_types=num_types, embed_dim=4, grid_subdivisions=3, variant=VARIANT_EXTRAPOLATION
    )
    params = random_params(cfg, rng)
    params.type_embed[:] *= embed_scale
    times = np.sort(rng.uniform(0.05, 5.0, size=length))
    types = rng.integers(0, num_types, size=length)
    seq = EventSequence(times=times, types=types, horizon=5.0, num_types=num_types)
    grid = make_grid(seq, cfg.grid_subdivisions)
    default = _extrapolation_outputs(params, cfg, seq, grid)
    for cells in BUDGETS:
        with _budget(cells):
            small = _extrapolation_outputs(params, cfg, seq, grid)
        for name, value in small.items():
            _assert_close(value, default[name])
        if not isinstance(small["trace"], type):
            oracle = [intensity_all_types(params, cfg, seq, float(t)) for t in grid.times]
            _assert_close(small["trace"], np.array(oracle))


@pytest.mark.parametrize("cells", [*BUDGETS, model.ROW_BLOCK_CELLS])
def test_plan_covers_rows_within_budget(cells):
    # grid points, then right-limit copies: h drops between the two segments
    seq = EventSequence(times=[2.0, 2.5, 3.0, 4.0], types=[0, 1, 0, 0], horizon=5.0, num_types=2)
    cfg = ModelConfig(num_types=2, embed_dim=4, grid_subdivisions=3)
    with _budget(cells):
        cache = SequenceCache(cfg, seq, make_grid(seq, 3))
    h = cache.h
    assert (np.diff(h) < 0).any()
    ends = [lo for lo, _, _ in cache.blocks] + [len(h)]
    assert ends[0] == 0 and [hi for _, hi, _ in cache.blocks] == ends[1:]
    for lo, hi, cols in cache.blocks:
        run = np.maximum.accumulate(h[lo:hi + 1])
        assert cols == h[lo:hi].max()
        assert hi - lo == 1 or (hi - lo) * max(cols, 1) <= cells
        if hi < len(h):  # one more row would not fit
            assert (hi - lo + 1) * max(run[-1], 1) > cells
    # the budget is read per call: at the default the whole grid is one block
    assert list(_row_blocks(h)) == [(0, len(h), int(h.max()))]
    assert len(cache.blocks) > 1 or cells == model.ROW_BLOCK_CELLS


def test_empty_history_rows_share_a_block_with_history():
    # a block whose first rows have no history but whose later rows do must
    # not mistake their zero type-pair denominators for an underflow
    seq = EventSequence(times=[3.0, 3.5, 4.0], types=[1, 0, 1], horizon=5.0, num_types=2)
    cfg = ModelConfig(num_types=2, embed_dim=4, grid_subdivisions=3)
    params = random_params(cfg, np.random.default_rng(3))
    grid = make_grid(seq, 3)
    default = _outputs(params, cfg, seq, grid)
    with _budget(64):
        blocks = SequenceCache(cfg, seq, grid).blocks
        small = _outputs(params, cfg, seq, grid)
    assert SequenceCache(cfg, seq, grid).h[0] == 0 and blocks[0][2] > 0
    for name, value in small.items():
        assert not isinstance(value, type)
        _assert_close(value, default[name])


@pytest.mark.parametrize("cells", [*BUDGETS, model.ROW_BLOCK_CELLS])
def test_type_pair_underflow_raises_at_every_budget(cells):
    # the input of test_diff's test_type_pair_underflow_raises at +-20
    cfg = ModelConfig(num_types=2, embed_dim=4)
    seq = EventSequence(times=[1.0, 2.0, 3.0], types=[1, 0, 0], horizon=4.0, num_types=2)
    params = random_params(cfg, np.random.default_rng(1234))
    params.type_embed[:] = [20.0, -20.0]
    with _budget(cells):
        out = _outputs(params, cfg, seq, make_grid(seq, cfg.grid_subdivisions))
    for name in ("log_likelihood", "gradient", "trace", "event_pre", "kernel"):
        assert out[name] is NonFinite, name


def _normalized_den(params, cfg, seq, z_q, h):
    """The type-pair denominators ``softmax @ type_w`` of queries ``z_q`` with histories ``h``."""
    scale = np.sqrt(2.0 * cfg.embed_dim)
    gram = params.type_embed.T @ params.type_embed
    type_w = np.exp((gram[:, seq.types].T - gram.max(axis=1)) / scale)
    z_ev = temporal_embedding(seq.times, cfg.embed_dim)
    return _softmax_rows(_history_scores(z_q, z_ev, h), 0.0, scale) @ type_w


def _raises_non_finite(call, *args):
    try:
        call(*args)
    except NonFinite:
        return True
    return False


def test_guard_raises_exactly_when_normalized_den_underflows():
    # the input of test_type_pair_underflow_raises, swept across the scale at
    # which the type-1 event's normalized weight for type-0 queries underflows
    cfg = ModelConfig(num_types=2, embed_dim=4)
    seq = EventSequence(times=[1.0, 2.0, 3.0], types=[1, 0, 0], horizon=4.0, num_types=2)
    grid = make_grid(seq, cfg.grid_subdivisions)
    cache = SequenceCache(cfg, seq, grid)
    taus = np.linspace(0.05, 1.0, 20)
    params = random_params(cfg, np.random.default_rng(1234))
    tiny = np.finfo(float).tiny
    seen = set()
    for a in np.arange(14.0, 21.0 + 1e-9, 0.25):
        params.type_embed[:] = [a, -a]
        den = _normalized_den(params, cfg, seq, cache.z_gr, cache.h)
        underflows = bool((den[cache.h > 0] < tiny).any())
        seen.add(("grid", underflows))
        assert _raises_non_finite(log_likelihood, params, cfg, seq, grid) == underflows, a
        for source in range(2):
            # every source event is a probe: its whole lag range is in the window
            qt = (seq.times[seq.types == source][:, None] + taus).ravel()
            qt = qt[qt <= seq.horizon]
            z_q = temporal_embedding(qt, cfg.embed_dim)
            den = _normalized_den(params, cfg, seq, z_q, np.searchsorted(seq.times, qt))
            underflows = bool((den < tiny).any())
            seen.add(("probe", underflows))
            raised = _raises_non_finite(recover_kernel, params, cfg, [seq], source, 0, taus)
            assert raised == underflows, (a, source)
    # both sides of the boundary are reached on both paths
    assert seen == {(path, u) for path in ("grid", "probe") for u in (False, True)}


@pytest.mark.parametrize("cells", [*BUDGETS, model.ROW_BLOCK_CELLS])
@pytest.mark.parametrize("num_types", [1, 4])
@pytest.mark.parametrize("skip", [False, True])
def test_grid_left_limit_rows_match_the_event_cache(cells, num_types, skip):
    # eval's one pass reads type accuracy from the grid's left-limit nodes, which
    # sit in other row blocks than a grid-less cache's event nodes
    rng = np.random.default_rng(num_types + 8 * skip)
    horizon = 5.0
    inner = np.sort(rng.uniform(0.5, 4.5, size=12))
    cases = {
        "ends": np.concatenate([[0.0], inner, [horizon]]),
        "single": np.array([2.0]),
        "near": np.sort(np.concatenate([inner, [inner[5] + 1e-9, horizon - 1e-9, horizon]])),
    }
    for embed_scale in (1.0, 12.0):
        cfg = ModelConfig(
            num_types=num_types, embed_dim=4, grid_subdivisions=3, skip_connection=skip
        )
        params = random_params(cfg, rng)
        params.type_embed[:] *= embed_scale
        for times in cases.values():
            types = rng.integers(0, num_types, size=len(times))
            seq = EventSequence(times=times, types=types, horizon=horizon, num_types=num_types)
            rows = []
            with _budget(cells):
                for grid in (make_grid(seq, 3), None):
                    cache = SequenceCache(cfg, seq, grid)
                    rows.append(forward(params, cfg, cache).pre_gr[cache.ev_node])
            _assert_close(*rows, rel=1e-13)
