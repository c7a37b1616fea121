"""End-to-end command-line behavior: exit codes, artifacts, echo lines."""

import numpy as np
import pytest

from pairnet.cli import (
    RunReport,
    UsageError,
    _parse_alphas,
    _parse_count_range,
    _parse_counts,
    _parse_functions,
    main,
)
from pairnet.datasets import Dataset, gen_train, read_csv, write_csv


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """A 1200-row slice of the f2 grid, written out once for the module."""
    full = gen_train("f2")
    idx = np.random.default_rng(11).choice(len(full), size=1200, replace=False)
    path = tmp_path_factory.mktemp("data") / "f2_small.csv"
    write_csv(Dataset(full.X[idx], full.y[idx], full.domain), path)
    return str(path)


def _parsed(capsys):
    """stdout echo lines as a dict: 'group.key = value' -> {group.key: value}."""
    out = {}
    for line in capsys.readouterr().out.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


class TestParsers:
    def test_alphas_normalized(self):
        alphas = _parse_alphas("0.2,0.2,0.6000001", 3)
        assert len(alphas) == 3
        assert abs(sum(alphas) - 1.0) < 1e-12
        assert all(isinstance(a, float) for a in alphas)

    def test_alphas_exact_when_already_normal(self):
        assert _parse_alphas("0.1,0.1,0.8") == (0.1, 0.1, 0.8)

    @pytest.mark.parametrize("text", ["a,b,c", "0.5,0.5", "-0.2,0.6,0.6", "0.5,0.6,0.5"])
    def test_alphas_rejected(self, text):
        with pytest.raises(UsageError):
            _parse_alphas(text, 3)

    def test_counts(self):
        assert _parse_counts("2,3,4") == (2, 3, 4)
        for text in ("0,2", "x,2", ""):
            with pytest.raises(UsageError):
                _parse_counts(text)

    def test_count_range(self):
        assert _parse_count_range("2,6") == (2, 6)
        for text in ("6,2", "0,4", "3", "2,3,4"):
            with pytest.raises(UsageError):
                _parse_count_range(text)

    def test_functions(self):
        assert _parse_functions("f1,f3") == ("f1", "f3")
        with pytest.raises(UsageError, match="f9"):
            _parse_functions("f9")

    def test_run_report_lines(self):
        report = RunReport(command="demo", config={"a": 1}, metrics={"b": "x"})
        assert report.lines() == ["command = demo", "config.a = 1", "metrics.b = x"]


class TestGenData:
    def test_train_split(self, tmp_path, capsys):
        out = tmp_path / "f2.csv"
        assert main(["gen-data", "--function", "f2", "--split", "train",
                     "--out", str(out)]) == 0
        echo = _parsed(capsys)
        assert echo["metrics.rows"] == "8000"
        assert len(read_csv(out)) == 8000

    def test_test_split_row_count(self, tmp_path, capsys):
        out = tmp_path / "f1_test.csv"
        assert main(["gen-data", "--function", "f1", "--split", "test",
                     "--out", str(out)]) == 0
        assert _parsed(capsys)["metrics.rows"] == "6859"

    def test_unknown_function_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen-data", "--function", "f9", "--split", "train",
                  "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2


class TestFitEval:
    def test_fit_writes_model_and_report(self, small_csv, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        assert main(["fit", "--data", small_csv, "--partition", "2,2,2",
                     "--alphas", "0.1,0.1,0.8", "--model-out", str(model_out)]) == 0
        echo = _parsed(capsys)
        assert model_out.exists()
        report_path = tmp_path / "m.report.csv"
        assert report_path.exists()
        assert echo["outputs.report"] == str(report_path)
        header = report_path.read_text().splitlines()[0]
        assert header == "subspace,n_rows,sse,mse,fallback,ridge,escalations,residual"
        assert float(echo["metrics.train_mse"]) >= 0.0
        assert echo["metrics.subspaces"] == "8"

    def test_eval_reproduces_training_mse_exactly(self, small_csv, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        main(["fit", "--data", small_csv, "--partition", "3,3,3",
              "--alphas", "0.1,0.1,0.8", "--model-out", str(model_out)])
        trained = _parsed(capsys)["metrics.train_mse"]
        assert main(["eval", "--model", str(model_out), "--data", small_csv]) == 0
        assert _parsed(capsys)["metrics.mse"] == trained

    def test_bad_alphas_writes_nothing(self, small_csv, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        assert main(["fit", "--data", small_csv, "--partition", "2,2,2",
                     "--alphas", "0.5,0.6,0.5", "--model-out", str(model_out)]) == 2
        assert "sum to 1" in capsys.readouterr().err
        assert not model_out.exists()
        assert not (tmp_path / "m.report.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--ridge", "inf"), ("--ridge", "nan"),
                                            ("--steepness", "inf")])
    def test_non_finite_knob_is_usage_error(self, small_csv, tmp_path, capsys, flag, value):
        model_out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as err:
            main(["fit", "--data", small_csv, "--partition", "2,2,2", "--alphas", "0.1,0.1,0.8",
                  "--model-out", str(model_out), "--activation", "sigmoid", flag, value])
        assert err.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
        assert not model_out.exists()

    def test_partition_dim_mismatch(self, small_csv, tmp_path):
        assert main(["fit", "--data", small_csv, "--partition", "2,2",
                     "--alphas", "0.5,0.5", "--model-out", str(tmp_path / "m.json")]) == 2

    def test_eval_missing_model_is_runtime_error(self, small_csv, tmp_path, capsys):
        assert main(["eval", "--model", str(tmp_path / "none.json"),
                     "--data", small_csv]) == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_corrupt_model_is_runtime_error(self, small_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["eval", "--model", str(bad), "--data", small_csv]) == 1

    def test_eval_dimension_mismatch(self, small_csv, tmp_path):
        model_out = tmp_path / "m.json"
        main(["fit", "--data", small_csv, "--partition", "2,2,2",
              "--alphas", "0.1,0.1,0.8", "--model-out", str(model_out)])
        two_col = tmp_path / "two.csv"
        from pairnet.partition import Interval

        write_csv(Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]]),
                          np.array([0.0, 1.0, 2.0]),
                          (Interval(0.0, 2.0), Interval(0.0, 1.0))), two_col)
        assert main(["eval", "--model", str(model_out), "--data", str(two_col)]) == 2


class TestSelect:
    def test_leaderboard_is_deterministic(self, small_csv, tmp_path, capsys):
        boards = []
        for name in ("a", "b"):
            board = tmp_path / f"{name}.csv"
            assert main(["select", "--data", small_csv, "--candidates", "2",
                         "--seed", "7", "--model-out", str(tmp_path / f"{name}.json"),
                         "--leaderboard-out", str(board)]) == 0
            boards.append(board.read_bytes())
        assert boards[0] == boards[1]
        header = boards[0].decode().splitlines()[0]
        assert header == "rank,candidate,partition,alphas,eval_mse,train_mse"
        echo = _parsed(capsys)
        assert "metrics.winner_partition" in echo
        assert "np.float64" not in echo["metrics.winner_alphas"]

    def test_saved_winner_matches_echo(self, small_csv, tmp_path, capsys):
        model_out = tmp_path / "w.json"
        main(["select", "--data", small_csv, "--candidates", "1", "--seed", "3",
              "--eval-mode", "training", "--model-out", str(model_out)])
        echo = _parsed(capsys)
        assert main(["eval", "--model", str(model_out), "--data", small_csv]) == 0
        evaluated = _parsed(capsys)["metrics.mse"]
        assert evaluated == echo["metrics.train_mse"]

    def test_zero_candidates_is_usage_error(self, small_csv, tmp_path, capsys):
        assert main(["select", "--data", small_csv, "--candidates", "0",
                     "--model-out", str(tmp_path / "m.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["select", "--candidates", "1"],
                                      ["bench", "--table", "1", "--functions", "f2"]])
    def test_negative_seed_is_usage_error(self, small_csv, tmp_path, capsys, argv):
        paths = (["--data", small_csv, "--model-out", str(tmp_path / "m.json")]
                 if argv[0] == "select" else ["--out", str(tmp_path)])
        with pytest.raises(SystemExit) as err:
            main(argv + paths + ["--seed", "-1"])
        assert err.value.code == 2
        assert "argument --seed: must be nonnegative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestBench:
    def test_partition_sweep_csv(self, tmp_path, capsys):
        assert main(["bench", "--table", "2", "--functions", "f2",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "table2.csv").read_text().splitlines()
        assert lines[0] == "partition,subspaces,f2_train_mse,f2_test_mse"
        assert len(lines) == 9
        assert lines[1].startswith("2-2-2,8,")
        assert lines[8].startswith("6-6-6,216,")
        first = float(lines[1].split(",")[2])
        last = float(lines[8].split(",")[2])
        assert last < first
        assert "outputs.csv" in _parsed(capsys)

    def test_speed_table_tiny(self, tmp_path, capsys):
        # seed 2: the first backprop restart survives, keeping this fast
        assert main(["bench", "--table", "1", "--functions", "f2", "--seed", "2",
                     "--candidates", "1", "--epochs", "2", "--mlp-seeds", "1",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert lines[0] == "method,function,t_train_seconds,mse_train,mse_test"
        assert len(lines) == 3
        assert lines[1].startswith("pairnet,f2,")
        assert lines[2].startswith("mlp,f2,")
        capsys.readouterr()

    @pytest.mark.parametrize("flag,value", [("--mlp-lr", "nan"), ("--mlp-momentum", "inf")])
    def test_non_finite_mlp_knob_is_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--table", "1", "--functions", "f2", "--epochs", "2",
                  "--out", str(tmp_path), flag, value])
        assert err.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize("value", ["1.5", "-3.0"])
    def test_momentum_outside_unit_interval_is_usage_error(self, tmp_path, capsys, value):
        assert main(["bench", "--table", "1", "--functions", "f2", "--epochs", "2",
                     "--out", str(tmp_path), "--mlp-momentum", value]) == 2
        assert "momentum must lie in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "table1.csv").exists()

    def test_speed_table_rejects_zero_candidates(self, tmp_path):
        assert main(["bench", "--table", "1", "--functions", "f2",
                     "--candidates", "0", "--out", str(tmp_path)]) == 2
