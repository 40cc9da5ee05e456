import json

import numpy as np
import pytest

from attnhawkes.cli import dataset_stats, run_cli
from attnhawkes.domain import Dataset, EventSequence
from attnhawkes.errors import DataError
from attnhawkes.io import load_data, load_model, save_model, save_sequences
from attnhawkes.model import ModelConfig, flatten_params
from attnhawkes.trainer import init_params

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
        code = run_cli(
            [
                "simulate", "--kernel", "exp", "--params", ONE_TYPE_PARAMS,
                "--num-seqs", "2", "--T", "4.0", "--split", "0.9,0.9,0.2",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


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
