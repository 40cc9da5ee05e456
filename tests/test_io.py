import hashlib
import json
import math

import numpy as np
import pytest

from attnhawkes.domain import Dataset, EventSequence
from attnhawkes.errors import DataError, EmptyDataset, ParseError, ValidationError
from attnhawkes.evaluate import KernelEstimate
from attnhawkes.io import (
    _fmt,
    load_data,
    load_model,
    load_sequences,
    save_dataset,
    save_model,
    save_sequences,
    write_attention_csv,
    write_heatmap_csv,
    write_kernel_csv,
    write_trace_csv,
)
from attnhawkes.model import (
    VARIANT_EXTRAPOLATION,
    ModelConfig,
    flatten_params,
    param_shapes,
    unflatten_params,
)

from conftest import random_params, random_sequence


def seqs_fixture():
    return [
        EventSequence(times=[0.5, 1.25], types=[0, 1], horizon=4.0, num_types=2),
        EventSequence(times=[], types=[], horizon=4.0, num_types=2),
        EventSequence(times=[3.999999999], types=[1], horizon=4.0, num_types=2),
    ]


class TestSequenceFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        save_sequences(seqs_fixture(), path)
        loaded = load_sequences(path)
        assert loaded == seqs_fixture()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_sequences(seqs_fixture(), a)
        save_sequences(seqs_fixture(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_time_scale(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        save_sequences(seqs_fixture(), path)
        loaded = load_sequences(path, time_scale=0.5)
        assert loaded[0].horizon == 2.0
        assert np.allclose(loaded[0].times, [0.25, 0.625])
        with pytest.raises(DataError):
            load_sequences(path, time_scale=0.0)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        ok = '{"T":4.0,"K":1,"events":[]}'
        path.write_text(ok + "\n" + ok + "\n" + "{not json}\n")
        with pytest.raises(ParseError) as info:
            load_sequences(path)
        assert info.value.line == 3

    def test_validation_error_carries_line_and_reason(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {"T": 4.0, "K": 1, "events": [{"t": 2.0, "k": 0}, {"t": 1.0, "k": 0}]}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValidationError) as info:
            load_sequences(path)
        assert info.value.line == 1

    def test_rejects_boolean_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"T":true,"K":1,"events":[]}\n')
        with pytest.raises(ValidationError):
            load_sequences(path)
        path.write_text('{"T":4.0,"K":1,"events":[{"t":1.0,"k":true}]}\n')
        with pytest.raises(ValidationError):
            load_sequences(path)

    def test_rejects_inconsistent_type_counts(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"T":4.0,"K":2,"events":[]}\n{"T":4.0,"K":3,"events":[]}\n'
        )
        with pytest.raises(ValidationError) as info:
            load_sequences(path)
        assert info.value.line == 2

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"T":4.0,"events":[]}\n')
        with pytest.raises(ValidationError):
            load_sequences(path)

    @pytest.mark.parametrize(
        "record",
        [
            "[1]",
            '{"T":4.0,"K":"2","events":[]}',
            '{"T":4.0,"K":1,"events":{}}',
            '{"T":4.0,"K":1,"events":[1]}',
            '{"T":4.0,"K":1,"events":[{"t":"1","k":0}]}',
        ],
        ids=["not-an-object", "string-K", "events-object", "event-not-object", "string-t"],
    )
    def test_rejects_mistyped_records(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text(record + "\n")
        with pytest.raises(ValidationError) as info:
            load_sequences(path)
        assert info.value.line == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        path.write_text('{"T":4.0,"K":1,"events":[]}\n\n{"T":4.0,"K":1,"events":[]}\n')
        assert len(load_sequences(path)) == 2


class TestDatasetFiles:
    def dataset(self):
        seqs = seqs_fixture()
        return Dataset(train=(seqs[0],), val=(seqs[1],), test=(seqs[2],), num_types=2)

    def test_directory_round_trip(self, tmp_path):
        save_dataset(self.dataset(), tmp_path / "data")
        loaded = load_data(tmp_path / "data")
        assert loaded == self.dataset()
        for name in ("train", "val", "test"):
            assert (tmp_path / "data" / f"{name}.jsonl").exists()

    def test_single_file_loads_into_train(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        save_sequences(seqs_fixture(), path)
        ds = load_data(path)
        assert len(ds.train) == 3 and not ds.val and not ds.test
        assert ds.num_types == 2

    def test_missing_path(self, tmp_path):
        with pytest.raises(DataError):
            load_data(tmp_path / "nope.jsonl")

    def test_empty_dataset(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "train.jsonl").write_text("")
        with pytest.raises(EmptyDataset):
            load_data(tmp_path / "data")

    def test_split_type_count_disagreement(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "train.jsonl").write_text('{"T":4.0,"K":2,"events":[]}\n')
        (d / "val.jsonl").write_text('{"T":4.0,"K":3,"events":[]}\n')
        with pytest.raises(DataError):
            load_data(d)


class TestModelFiles:
    @pytest.mark.parametrize("variant", ["ithp", VARIANT_EXTRAPOLATION])
    def test_round_trip_bit_identical(self, tmp_path, rng, variant):
        cfg = ModelConfig(num_types=2, embed_dim=6, variant=variant)
        params = random_params(cfg, rng)
        path = tmp_path / "model.json"
        save_model(params, cfg, path)
        loaded_params, loaded_cfg = load_model(path)
        assert loaded_cfg == cfg
        assert np.array_equal(
            flatten_params(loaded_params, cfg), flatten_params(params, cfg)
        )
        # a second save of the loaded model reproduces the file bytes
        again = tmp_path / "model2.json"
        save_model(loaded_params, loaded_cfg, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "variant,skip,digest",
        [
            ("ithp", False, "dda3d04b38e063b2237cfb80a40e68e3bb78886951752cc96403f2c3f099f32f"),
            ("ithp", True, "31f37988d370c51003a530257a91fdbd90852d0dd3d4a285a7181dff8241154a"),
            (
                VARIANT_EXTRAPOLATION,
                False,
                "2d7291e0a2535748aaa1b2d86a155a3c944ae721c09aa05258d05e00bb21127c",
            ),
        ],
    )
    def test_file_bytes_are_pinned(self, tmp_path, variant, skip, digest):
        # a tiny fixed model: the sha256 pins the key order, the indentation and
        # every float's repr, so a change in how the file is written fails here
        cfg = ModelConfig(
            num_types=1,
            embed_dim=2,
            value_dim=4 if skip else 1,
            hidden_dim=1,
            variant=variant,
            grid_subdivisions=3,
            skip_connection=skip,
        )
        size = sum(math.prod(shape) for shape in param_shapes(cfg).values())
        path = tmp_path / "model.json"
        save_model(unflatten_params(np.linspace(-1.0, 1.0, size), cfg), cfg, path)
        doc = json.loads(path.read_text())
        assert list(doc["config"]) == [
            "num_types", "embed_dim", "value_dim", "hidden_dim", "variant",
            "grid_subdivisions", "skip_connection",
        ]
        assert list(doc["params"]) == list(param_shapes(cfg))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{broken")
        with pytest.raises(DataError):
            load_model(path)

    def test_rejects_unknown_format_version(self, tmp_path, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        path = tmp_path / "model.json"
        save_model(random_params(cfg, rng), cfg, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_model(path)

    def test_rejects_missing_or_misshapen_params(self, tmp_path, rng):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        path = tmp_path / "model.json"
        save_model(random_params(cfg, rng), cfg, path)
        doc = json.loads(path.read_text())
        del doc["params"]["bias"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_model(path)
        save_model(random_params(cfg, rng), cfg, path)
        doc = json.loads(path.read_text())
        doc["params"]["bias"]["data"] = [0.0, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_model(path)
        for mangle, pattern in (
            (lambda d: d.update(params=[]), None),
            (lambda d: d["params"].pop("bias"), "'bias'"),
            (lambda d: d["params"].update(bias=0.5), "'bias'"),
            (lambda d: d["params"].update(bias=[0.5]), "'bias'"),
            (lambda d: d["params"]["bias"].update(shape=1), "'bias'"),
            (lambda d: d["params"]["bias"].update(shape=[-1]), "'bias'"),
        ):
            save_model(random_params(cfg, rng), cfg, path)
            doc = json.loads(path.read_text())
            mangle(doc)
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError, match=pattern):
                load_model(path)

    def test_save_refuses_non_finite_params(self, tmp_path, rng):
        # a NaN written as the JSON token NaN makes a file load_model refuses
        cfg = ModelConfig(num_types=1, embed_dim=4)
        params = random_params(cfg, rng)
        params.bias[0] = np.nan
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="'bias'"):
            save_model(params, cfg, path)
        assert not path.exists()


class TestCsvArtifacts:
    def test_kernel_csv(self, tmp_path):
        est = KernelEstimate(
            tau=np.array([0.1, 0.2]),
            phi=np.array([0.5, 0.25]),
            source=1,
            target=0,
            num_probes=7,
        )
        path = tmp_path / "kernel.csv"
        write_kernel_csv(path, est, {"split": "test"})
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0][2:])
        assert meta["source"] == 1 and meta["split"] == "test"
        assert lines[1] == "tau,phi_hat"
        assert lines[2] == "0.1,0.5"
        assert len(lines) == 4

    def test_heatmap_csv(self, tmp_path):
        from attnhawkes.evaluate import Heatmap

        hm = Heatmap(
            integrals=np.array([[0.5, 0.1], [0.2, 0.4]]), tau_max=1.0, steps=4, num_probes=3
        )
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, hm)
        lines = path.read_text().splitlines()
        assert lines[1] == "target,source_0,source_1"
        assert lines[2] == "0,0.5,0.1"
        assert lines[3] == "1,0.2,0.4"

    def test_attention_csv(self, tmp_path, rng):
        from attnhawkes.domain import make_grid
        from attnhawkes.model import attention_matrix

        cfg = ModelConfig(num_types=2, embed_dim=4)
        params = random_params(cfg, rng)
        seq = EventSequence(times=[1.0, 2.0], types=[0, 1], horizon=3.0, num_types=2)
        amap = attention_matrix(params, cfg, seq, make_grid(seq, 2))
        path = tmp_path / "attention.csv"
        write_attention_csv(path, amap)
        lines = path.read_text().splitlines()
        n = len(amap.times)
        assert lines[1].split(",")[:3] == ["time", "kind", "query_type"]
        assert len(lines) == 2 + n
        kinds = [line.split(",")[1] for line in lines[2:]]
        assert kinds.count("event") == 2

    def test_attention_csv_cells_as_fmt(self, tmp_path):
        from attnhawkes.model import AttentionMap

        cells = [-0.0, np.nan, 5e-324, 1e-300, 0.1 + 0.2]
        n = len(cells)
        amap = AttentionMap(
            times=np.linspace(0.0, 1.0, n),
            is_event=np.zeros(n, dtype=bool),
            query_types=np.zeros(n, dtype=np.int64),
            matrix=np.array([np.roll(cells, i) for i in range(n)]),
        )
        path = tmp_path / "attention.csv"
        write_attention_csv(path, amap)
        expected = [
            ",".join([_fmt(t), "grid", "0"] + [_fmt(x) for x in row])
            for t, row in zip(amap.times, amap.matrix)
        ]
        assert path.read_bytes().decode().split("\n")[2:] == expected + [""]

    def test_trace_csv_with_truth(self, tmp_path):
        from attnhawkes.evaluate import IntensityTrace

        trace = IntensityTrace(
            times=np.array([0.0, 1.0]), values=np.array([[0.5], [0.75]])
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, true_values=np.array([[0.4], [0.6]]))
        lines = path.read_text().splitlines()
        assert lines[1] == "t,lambda_0,true_0"
        assert lines[2] == "0.0,0.5,0.4"
        assert lines[3] == "1.0,0.75,0.6"

    def test_csv_writers_are_deterministic(self, tmp_path):
        est = KernelEstimate(
            tau=np.linspace(0.05, 1.0, 20),
            phi=np.sin(np.linspace(0.05, 1.0, 20)),
            source=0,
            target=0,
            num_probes=11,
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_kernel_csv(a, est)
        write_kernel_csv(b, est)
        assert a.read_bytes() == b.read_bytes()
