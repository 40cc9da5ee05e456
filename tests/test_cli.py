import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from attnhawkes import cli
from attnhawkes.cli import dataset_stats, run_cli
from attnhawkes.domain import Dataset, EventSequence, make_grid
from attnhawkes.errors import DataError, ParseError, ValidationError
from attnhawkes.io import (
    load_data,
    load_model,
    save_dataset,
    save_model,
    save_sequences,
    write_attention_csv,
)
from attnhawkes.model import ModelConfig, _attention_rows, attention_matrix, flatten_params
from attnhawkes.trainer import init_params

from conftest import random_params, random_sequence

ONE_TYPE_PARAMS = '{"mu":[0.8],"alpha":[[0.5]],"beta":[[2.0]]}'


def _printed_json(capsys):
    """Parse the JSON document a command just printed to stdout."""
    out = capsys.readouterr().out
    return json.loads(out[out.index("{") :])


def simulate(tmp_path, name="data", seed=5, num=8, horizon=6.0, extra=()):
    out = tmp_path / name
    code = run_cli(
        [
            "simulate",
            "--kernel",
            "exp",
            "--params",
            ONE_TYPE_PARAMS,
            "--num-seqs",
            str(num),
            "--T",
            str(horizon),
            "--seed",
            str(seed),
            "--split",
            "0.5,0.25,0.25",
            "--out",
            str(out),
            *extra,
        ]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_writes_split_files(self, tmp_path, capsys):
        out = simulate(tmp_path)
        printed = json.loads(capsys.readouterr().out)
        assert printed["sequences"] == 8
        ds = load_data(out)
        assert (len(ds.train), len(ds.val), len(ds.test)) == (4, 2, 2)
        assert printed["events"] == sum(len(s) for s in ds.all_sequences())

    def test_byte_identical_under_same_seed(self, tmp_path):
        a = simulate(tmp_path, "a", seed=9)
        b = simulate(tmp_path, "b", seed=9)
        c = simulate(tmp_path, "c", seed=10)
        for name in ("train.jsonl", "val.jsonl", "test.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / "train.jsonl").read_bytes() != (c / "train.jsonl").read_bytes()

    def test_params_from_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(ONE_TYPE_PARAMS)
        out = tmp_path / "data"
        code = run_cli(
            [
                "simulate", "--kernel", "exp", "--params", str(spec_path),
                "--num-seqs", "2", "--T", "4.0", "--out", str(out),
            ]
        )
        assert code == 0

    def test_long_inline_params(self, tmp_path, capsys):
        # eight half-sine groups: the inline JSON is longer than a file name may be
        alpha = (0.2 * np.eye(8) + 0.1 * np.roll(np.eye(8), 1, axis=0)).tolist()
        spec = json.dumps({"mu": [0.05] * 8, "alpha": alpha})
        assert len(spec) > 255
        code = run_cli(
            [
                "simulate", "--kernel", "half-sine", "--params", spec,
                "--num-seqs", "2", "--T", "4.0", "--out", str(tmp_path / "data"),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["sequences"] == 2

    def test_bad_fractions_exit_2(self, tmp_path, capsys):
        for split in ("0.9,0.9,0.2", "0.5,x,0.5"):
            code = run_cli(
                [
                    "simulate", "--kernel", "exp", "--params", ONE_TYPE_PARAMS,
                    "--num-seqs", "2", "--T", "4.0", "--split", split,
                    "--out", str(tmp_path / "x"),
                ]
            )
            assert code == 2
            assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params, message",
        [
            ("{oops", "could not read JSON"),
            ("[1]", "must be a JSON object"),
            ('{"mu":[1]}', "bad process parameters"),
        ],
        ids=["bad-json", "not-an-object", "missing-alpha"],
    )
    def test_bad_params_exit_2(self, tmp_path, capsys, params, message):
        out = tmp_path / "x"
        code = run_cli(
            [
                "simulate", "--kernel", "exp", "--params", params,
                "--num-seqs", "2", "--T", "4.0", "--out", str(out),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


EXPLOSIVE_PARAMS = '{"mu":[1],"alpha":[[10]],"beta":[[5]]}'


class TestExplosiveSimulate:
    @pytest.mark.parametrize(
        "extra, message",
        [((), "spectral radius 2 >= 1"), (("--allow-explosive",), "20000 events")],
        ids=["rejected", "capped"],
    )
    def test_hang_case_exits_3_within_a_second(self, tmp_path, capsys, extra, message):
        # CPU time, so that other load on the machine does not count
        start = time.process_time()
        code = run_cli(
            [
                "simulate", "--kernel", "exp", "--params", EXPLOSIVE_PARAMS,
                "--num-seqs", "1", "--T", "4", "--out", str(tmp_path / "x"), *extra,
            ]
        )
        elapsed = time.process_time() - start
        assert code == 3
        assert message in capsys.readouterr().err
        assert elapsed < 1.0
        assert not (tmp_path / "x").exists()


class TestParserReuse:
    def test_no_value_leaks_between_calls(self, tmp_path, capsys):
        first = simulate(tmp_path, "a", seed=5, extra=("--allow-explosive",))
        assert run_cli(["stats", "--data", str(first)]) == 0
        argv = [
            "simulate", "--kernel", "exp", "--params", ONE_TYPE_PARAMS,
            "--num-seqs", "10", "--T", "6.0", "--out", str(tmp_path / "b"),
        ]
        other = argv + ["--seed", "8", "--split", "0.7,0.2,0.1"]
        assert run_cli(other) == 0
        ds = load_data(tmp_path / "b")
        assert (len(ds.train), len(ds.val), len(ds.test)) == (7, 2, 1)
        # the process-wide parser reads every argument list as a new one does
        for args in (other, argv, ["stats", "--data", str(first)]):
            assert vars(cli._parser().parse_args(args)) == vars(cli.build_parser().parse_args(args))
        defaults = cli._parser().parse_args(argv)
        assert (defaults.seed, defaults.split, defaults.allow_explosive) == (0, "0.6,0.2,0.2", False)
        # and the output equals that of a freshly built parser
        fresh = cli.build_parser().parse_args(other[:10] + [str(tmp_path / "c")] + other[11:])
        assert fresh.func(fresh) == 0
        for name in ("train.jsonl", "val.jsonl", "test.jsonl"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


class TestTrainEval:
    def train(self, tmp_path, data, extra=()):
        model = tmp_path / "model.json"
        code = run_cli(
            [
                "train", "--data", str(data), "--M", "4", "--grid", "3",
                "--lr", "0.01", "--epochs", "2", "--batch-size", "4",
                "--out", str(model), *extra,
            ]
        )
        assert code == 0
        return model

    def test_pipeline_train_then_eval(self, tmp_path, capsys):
        data = simulate(tmp_path)
        model = self.train(tmp_path, data)
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["epochs_run"] == 2
        code = run_cli(
            ["eval", "--model", str(model), "--data", str(data), "--split", "test"]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) == {"tll", "acc"}
        assert metrics["acc"] == 1.0  # single event type
        assert np.isfinite(metrics["tll"])

    def test_zero_epochs_saves_initialization(self, tmp_path, capsys):
        data = simulate(tmp_path)
        model = tmp_path / "model.json"
        code = run_cli(
            [
                "train", "--data", str(data), "--M", "4", "--epochs", "0",
                "--out", str(model),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary == {"epochs_run": 0, "best_epoch": -1}
        params, cfg = load_model(model)
        ds = load_data(data)
        expected = init_params(cfg, ds.train, seed=0)
        assert np.array_equal(
            flatten_params(params, cfg), flatten_params(expected, cfg)
        )

    def test_training_log(self, tmp_path, capsys):
        data = simulate(tmp_path)
        log = tmp_path / "log.jsonl"
        self.train(tmp_path, data, extra=("--log", str(log)))
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2]
        assert all("val_tll" in r and "seconds" in r for r in records)

    def test_deterministic_model_files(self, tmp_path, capsys):
        data = simulate(tmp_path)
        a = self.train(tmp_path, data)
        bytes_a = a.read_bytes()
        a.unlink()
        b = self.train(tmp_path, data)
        assert b.read_bytes() == bytes_a

    def test_divergent_training_exit_3(self, tmp_path, capsys):
        data = simulate(tmp_path)
        code = run_cli(
            [
                "train", "--data", str(data), "--M", "4", "--grid", "3",
                "--lr", "1e5", "--epochs", "50", "--batch-size", "2",
                "--out", str(tmp_path / "model.json"),
            ]
        )
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_skip_connection_with_extrapolation_exits_2(self, tmp_path, capsys):
        data = simulate(tmp_path)
        model = tmp_path / "model.json"
        code = run_cli(
            [
                "train", "--data", str(data), "--M", "4", "--grid", "3", "--epochs", "1",
                "--variant", "ex-ithp", "--skip-connection", "--out", str(model),
            ]
        )
        assert code == 2
        assert "attention variant" in capsys.readouterr().err
        assert not model.exists()

    def test_unknown_metric_exit_1(self, tmp_path, capsys):
        data = simulate(tmp_path)
        model = self.train(tmp_path, data)
        code = run_cli(
            ["eval", "--model", str(model), "--data", str(data), "--metrics", "auc"]
        )
        assert code == 1


class TestArtifactCommands:
    @pytest.fixture()
    def trained(self, tmp_path):
        data = simulate(tmp_path, num=10, horizon=8.0)
        model = tmp_path / "model.json"
        code = run_cli(
            [
                "train", "--data", str(data), "--M", "4", "--grid", "3",
                "--lr", "0.01", "--epochs", "2", "--batch-size", "4",
                "--out", str(model),
            ]
        )
        assert code == 0
        return data, model

    def test_recover_kernel_csv(self, tmp_path, capsys, trained):
        data, model = trained
        out = tmp_path / "kernel.csv"
        code = run_cli(
            [
                "recover-kernel", "--model", str(model), "--data", str(data),
                "--split", "train", "--source", "0", "--target", "0",
                "--tau-max", "1.0", "--steps", "5", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "tau,phi_hat"
        assert len(lines) == 7

    def test_recover_kernel_bad_type_exit_2(self, tmp_path, capsys, trained):
        data, model = trained
        for target in ("5", "-1"):
            code = run_cli(
                [
                    "recover-kernel", "--model", str(model), "--data", str(data),
                    "--split", "train", "--source", "0", "--target", target,
                    "--out", str(tmp_path / "kernel.csv"),
                ]
            )
            assert code == 2
            assert "target type" in capsys.readouterr().err

    def test_steps_or_num_probes_below_one_exit_2(self, tmp_path, capsys, trained):
        data, model = trained
        out = tmp_path / "out.csv"
        common = ["--model", str(model), "--data", str(data), "--split", "train", "--out", str(out)]
        kernel = ["recover-kernel", *common, "--source", "0", "--target", "0"]
        for argv in (
            [*kernel, "--steps", "0"],
            [*kernel, "--num-probes", "0"],
            ["heatmap", *common, "--steps", "0"],
            ["heatmap", *common, "--num-probes", "0"],
        ):
            assert run_cli(argv) == 2
            assert "at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_tau_max_exit_2(self, tmp_path, capsys, trained):
        data, model = trained
        out = tmp_path / "out.csv"
        common = ["--model", str(model), "--data", str(data), "--split", "train", "--out", str(out)]
        for argv in (
            ["heatmap", *common, "--tau-max", "nan"],
            ["heatmap", *common, "--tau-max", "inf"],
            ["recover-kernel", *common, "--source", "0", "--target", "0", "--tau-max", "nan"],
        ):
            assert run_cli(argv) == 2
        assert not out.exists()

    def test_heatmap_type_pair_underflow_exit_3(self, tmp_path, capsys):
        # +-20 type embeddings underflow the type-1 event's weight for type-0 queries
        cfg = ModelConfig(num_types=2, embed_dim=4)
        seq = EventSequence(times=[1.0, 2.0, 3.0], types=[1, 0, 0], horizon=4.0, num_types=2)
        params = init_params(cfg, [seq], 0)
        params.type_embed[:] = [20.0, -20.0]
        model = tmp_path / "model.json"
        save_model(params, cfg, model)
        data = tmp_path / "data.jsonl"
        save_sequences([seq], data)
        out = tmp_path / "heatmap.csv"
        argv = ["heatmap", "--model", str(model), "--data", str(data), "--split", "train"]
        assert run_cli([*argv, "--out", str(out)]) == 3
        assert "numerical error" in capsys.readouterr().err
        assert not out.exists()

    def test_heatmap_csv(self, tmp_path, capsys, trained):
        data, model = trained
        out = tmp_path / "heatmap.csv"
        code = run_cli(
            [
                "heatmap", "--model", str(model), "--data", str(data),
                "--split", "train", "--steps", "4", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[1] == "target,source_0"

    def test_attention_map_csv(self, tmp_path, capsys, trained):
        data, model = trained
        out = tmp_path / "attention.csv"
        code = run_cli(
            [
                "attention-map", "--model", str(model), "--data", str(data),
                "--split", "train", "--seq-index", "0", "--out", str(out),
            ]
        )
        assert code == 0
        head = out.read_text().splitlines()[1].split(",")
        assert head[:3] == ["time", "kind", "query_type"]

    def test_attention_map_bad_index_exit_2(self, tmp_path, capsys, trained):
        data, model = trained
        code = run_cli(
            [
                "attention-map", "--model", str(model), "--data", str(data),
                "--split", "train", "--seq-index", "99",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_intensity_trace_with_truth(self, tmp_path, capsys, trained):
        data, model = trained
        out = tmp_path / "trace.csv"
        code = run_cli(
            [
                "intensity-trace", "--model", str(model), "--data", str(data),
                "--split", "train", "--seq-index", "0",
                "--true-spec",
                '{"kernel":"exp","mu":[0.8],"alpha":[[0.5]],"beta":[[2.0]]}',
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[1] == "t,lambda_0,true_0"

    def test_intensity_trace_true_spec_type_mismatch_exit_2(self, tmp_path, capsys):
        # a two-type model against one- and three-type true processes
        cfg = ModelConfig(num_types=2, embed_dim=4)
        seq = EventSequence(times=[1.0, 2.0, 3.0], types=[1, 0, 0], horizon=4.0, num_types=2)
        model = tmp_path / "model.json"
        save_model(init_params(cfg, [seq], 0), cfg, model)
        data = tmp_path / "data.jsonl"
        save_sequences([seq], data)
        out = tmp_path / "trace.csv"
        argv = [
            "intensity-trace", "--model", str(model), "--data", str(data),
            "--split", "train", "--seq-index", "0",
        ]
        for spec in (
            '{"kernel":"exp","mu":[0.8],"alpha":[[0.5]],"beta":[[2.0]]}',
            '{"kernel":"half-sine","mu":[0.1,0.1,0.1],"alpha":[[0.1,0,0],[0,0.1,0],[0,0,0.1]]}',
        ):
            assert run_cli([*argv, "--true-spec", spec, "--out", str(out)]) == 2
            assert "--true-spec has" in capsys.readouterr().err
        assert not out.exists()

    def test_intensity_trace_unknown_true_kernel_exit_2(self, tmp_path, capsys):
        cfg = ModelConfig(num_types=1, embed_dim=4)
        seq = EventSequence(times=[1.0, 2.0], types=[0, 0], horizon=4.0, num_types=1)
        model = tmp_path / "model.json"
        save_model(init_params(cfg, [seq], 0), cfg, model)
        data = tmp_path / "data.jsonl"
        save_sequences([seq], data)
        out = tmp_path / "trace.csv"
        code = run_cli(
            [
                "intensity-trace", "--model", str(model), "--data", str(data),
                "--split", "train", "--seq-index", "0",
                "--true-spec", '{"kernel":"foo","mu":[0.8],"alpha":[[0.5]]}',
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "unknown kernel 'foo'" in capsys.readouterr().err
        assert not out.exists()


def _interpretation_commands(model, data, out, split="test"):
    """The five commands that read one split, each writing ``out``."""
    common = ["--model", str(model), "--data", str(data), "--split", split]
    return [
        ["eval", *common],
        ["heatmap", *common, "--out", str(out)],
        ["recover-kernel", *common, "--source", "0", "--target", "0", "--out", str(out)],
        ["attention-map", *common, "--seq-index", "0", "--out", str(out)],
        ["intensity-trace", *common, "--seq-index", "0", "--out", str(out)],
    ]


class TestTypeCountMismatch:
    def test_model_and_data_type_counts_differ_exit_2(self, tmp_path, capsys):
        # every split holds every type, so a K=2 model meets type 2 in K=3 data
        rng = np.random.default_rng(3)
        out = tmp_path / "out.csv"
        for data_k, model_k in ((3, 2), (2, 3)):
            types = np.resize(np.arange(data_k), 12)
            times = np.linspace(0.5, 5.5, 12)
            seqs = [EventSequence(times, types, horizon=6.0, num_types=data_k)] * 3
            data = tmp_path / f"data{data_k}"
            save_dataset(
                Dataset(train=tuple(seqs), val=tuple(seqs), test=tuple(seqs), num_types=data_k),
                data,
            )
            cfg = ModelConfig(num_types=model_k, embed_dim=4)
            model = tmp_path / f"model{model_k}.json"
            save_model(random_params(cfg, rng), cfg, model)
            for argv in _interpretation_commands(model, data, out):
                assert run_cli(argv) == 2, argv[0]
                err = capsys.readouterr().err
                assert f"the data have {data_k} event types, the model has {model_k}" in err
                assert not out.exists()


class TestModelFileChecks:
    def mangled_model(self, tmp_path, variant, mangle):
        """A saved one-type model whose JSON document ``mangle`` edits in place."""
        cfg = ModelConfig(num_types=1, embed_dim=4, variant=variant)
        model = tmp_path / "model.json"
        save_model(random_params(cfg, np.random.default_rng(0)), cfg, model)
        doc = json.loads(model.read_text())
        mangle(doc)
        model.write_text(json.dumps(doc))
        return model

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, value):
        # unchecked, a NaN type embedding gives an all-zero heatmap (its finite mask drops it)
        def poison(doc):
            doc["params"]["type_embed"]["data"][0] = value

        data = simulate(tmp_path)
        model = self.mangled_model(tmp_path, "ithp", poison)
        out = tmp_path / "out.csv"
        for argv in _interpretation_commands(model, data, out):
            assert run_cli(argv) == 2, argv[0]
            assert "'type_embed' has non-finite entries" in capsys.readouterr().err
            assert not out.exists()

    def test_skip_connection_with_extrapolation_exits_2(self, tmp_path, capsys):
        data = simulate(tmp_path)
        model = self.mangled_model(
            tmp_path, "ex-ithp", lambda doc: doc["config"].update(skip_connection=True)
        )
        out = tmp_path / "out.csv"
        for argv in _interpretation_commands(model, data, out):
            assert run_cli(argv) == 2, argv[0]
            assert "attention variant" in capsys.readouterr().err
            assert not out.exists()


class TestSplitOnlyLoading:
    @pytest.fixture()
    def setup(self, tmp_path):
        data = simulate(tmp_path, num=12, horizon=8.0)
        cfg = ModelConfig(num_types=1, embed_dim=4, grid_subdivisions=3)
        model = tmp_path / "model.json"
        save_model(init_params(cfg, load_data(data).train, 0), cfg, model)
        return data, model, tmp_path / "out.csv"

    def test_other_splits_are_not_read(self, setup, capsys):
        data, model, out = setup
        (data / "val.jsonl").write_text("{oops\n")
        (data / "train.jsonl").write_text('{"T":4.0,"K":2,"events":[]}\n')
        with pytest.raises(DataError):
            load_data(data)
        for argv in _interpretation_commands(model, data, out):
            assert run_cli(argv) == 0, argv[0]
            assert "error" not in capsys.readouterr().err

    def test_malformed_requested_split_keeps_its_error(self, setup, capsys):
        data, model, out = setup
        first = (data / "test.jsonl").read_text().splitlines()[0]
        for bad, error in (("{oops", ParseError), ('{"T":4.0,"K":2,"events":[]}', ValidationError)):
            (data / "test.jsonl").write_text(first + "\n" + bad + "\n")
            with pytest.raises(error) as raised:
                load_data(data)
            assert raised.value.line == 2
            for argv in _interpretation_commands(model, data, out):
                assert run_cli(argv) == 2, argv[0]
                assert capsys.readouterr().err == f"data error: {raised.value}\n"
            assert not out.exists()

    def test_absent_or_empty_requested_split_exit_2(self, setup, capsys):
        data, model, out = setup
        for make_empty in (lambda p: p.unlink(), lambda p: p.write_text("")):
            make_empty(data / "test.jsonl")
            for argv in _interpretation_commands(model, data, out):
                assert run_cli(argv) == 2, argv[0]
                assert "data error" in capsys.readouterr().err
            assert not out.exists()
        # accuracy of a one-type model is 1 by convention, even on an empty
        # split, unless the whole dataset is empty
        acc = ["eval", "--model", str(model), "--data", str(data), "--metrics", "acc"]
        assert run_cli(acc) == 0
        assert json.loads(capsys.readouterr().out) == {"acc": 1.0}
        for name in ("train.jsonl", "val.jsonl"):
            (data / name).write_text("")
        assert run_cli(acc) == 2
        assert "no sequences found" in capsys.readouterr().err

    def test_time_scale_applies_to_the_split(self, setup, capsys):
        data, model, out = setup
        argv = _interpretation_commands(model, data, out)[4]
        assert run_cli(argv) == 0
        plain = out.read_text().splitlines()[2:]
        assert run_cli([*argv, "--time-scale", "2.0"]) == 0
        doubled = out.read_text().splitlines()[2:]
        assert float(doubled[-1].split(",")[0]) == 2.0 * float(plain[-1].split(",")[0])
        assert run_cli([*argv, "--time-scale", "-1"]) == 2
        assert "time scale must be positive" in capsys.readouterr().err


def _parent_attention_csv(amap, meta) -> str:
    """An attention CSV formatted as before zero-aware cells: ``repr`` on every cell."""
    n = len(amap.times)
    lines = ["# " + json.dumps(meta, separators=(",", ":"))]
    lines.append(",".join(["time", "kind", "query_type"] + [f"w_{j}" for j in range(n)]))
    for i in range(n):
        kind = "event" if amap.is_event[i] else "grid"
        head = [repr(float(amap.times[i])), kind, str(int(amap.query_types[i]))]
        lines.append(",".join(head + list(map(repr, amap.matrix[i].tolist()))))
    return "\n".join(lines) + "\n"


class TestStreamedAttentionMap:
    @pytest.mark.parametrize("length, grid", [(60, 10), (400, 2)])
    def test_bytes_match_dense_map(self, tmp_path, capsys, rng, length, grid):
        cfg = ModelConfig(num_types=3, embed_dim=8, grid_subdivisions=grid)
        params = random_params(cfg, rng)
        seq = random_sequence(rng, length, 3, length / 2.0)
        model, data, out = tmp_path / "model.json", tmp_path / "seqs.jsonl", tmp_path / "a.csv"
        save_model(params, cfg, model)
        save_sequences([seq], data)
        argv = ["attention-map", "--model", str(model), "--data", str(data)]
        assert run_cli([*argv, "--split", "train", "--seq-index", "0", "--out", str(out)]) == 0
        amap = attention_matrix(params, cfg, seq, make_grid(seq, grid))
        if length == 400:  # the 400-event map spans many row blocks
            assert len(amap.times) ** 2 > 8 * 65536
        meta = {"artifact": "attention_map", "num_points": len(amap.times)}
        dense = tmp_path / "dense.csv"
        write_attention_csv(dense, amap, {"split": "train", "seq_index": 0})
        expected = _parent_attention_csv(amap, {**meta, "split": "train", "seq_index": 0})
        assert out.read_bytes() == dense.read_bytes() == expected.encode()

    def test_memory_stays_at_one_row_block(self, rng):
        # a 300-event map has about 3000 rows; its dense matrix is about 69 MB
        cfg = ModelConfig(num_types=2, embed_dim=8)
        params = random_params(cfg, rng)
        seq = random_sequence(rng, 300, 2, 150.0)
        grid = make_grid(seq, 10)
        dense_mb = len(grid.times) ** 2 * 8 / 2**20
        tracemalloc.start()
        try:
            write_attention_csv(os.devnull, _attention_rows(params, cfg, seq, grid))
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert dense_mb > 64.0
        assert peak_mb < 8.0, f"{peak_mb:.1f} MB"


class TestStatsAndErrors:
    def test_stats_report_structure(self, tmp_path, capsys):
        data = simulate(tmp_path)
        capsys.readouterr()
        assert run_cli(["stats", "--data", str(data)]) == 0
        report = _printed_json(capsys)
        assert report["num_types"] == 1
        train = report["splits"]["train"]
        assert train["num_sequences"] == 4
        assert set(train["seq_length"]) == {"max", "min", "mean", "std"}
        assert train["type_percentages"] == [100.0]

    def test_dataset_stats_empty_raises(self):
        with pytest.raises(DataError):
            dataset_stats(Dataset(train=(), val=(), test=(), num_types=1))

    def test_dataset_stats_values(self):
        seq = EventSequence(times=[1.0, 3.0, 4.0], types=[0, 1, 0], horizon=5.0, num_types=2)
        ds = Dataset(train=(seq,), val=(), test=(), num_types=2)
        report = dataset_stats(ds)
        train = report["splits"]["train"]
        assert train["num_events"] == 3
        assert train["interval"]["mean"] == pytest.approx(1.5)
        assert train["type_percentages"] == pytest.approx([200 / 3, 100 / 3])
        assert report["splits"]["val"]["seq_length"] is None

    def test_parse_error_exit_2_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        ok = '{"T":4.0,"K":1,"events":[]}'
        bad.write_text(ok + "\n" + ok + "\n" + "{oops\n")
        code = run_cli(["stats", "--data", str(bad)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self, capsys):
        assert run_cli(["simulate", "--bogus"]) == 1

    def test_missing_data_exit_2(self, tmp_path, capsys):
        assert run_cli(["stats", "--data", str(tmp_path / "none.jsonl")]) == 2

    def test_time_scale_rescales(self, tmp_path, capsys):
        data = simulate(tmp_path)
        capsys.readouterr()
        assert run_cli(["stats", "--data", str(data)]) == 0
        plain = _printed_json(capsys)
        assert run_cli(["stats", "--data", str(data), "--time-scale", "2.0"]) == 0
        doubled = _printed_json(capsys)
        a = plain["splits"]["train"]["interval"]["mean"]
        b = doubled["splits"]["train"]["interval"]["mean"]
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "attnhawkes", "--help"], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert "heatmap" in done.stdout
