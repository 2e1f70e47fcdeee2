import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rrnn import cli
from rrnn.gradcheck import run_gradcheck
from rrnn.model import LanguageModel

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def write_config(tmp_path, **overrides):
    cfg = {
        "model": {"family": "lstm", "layers": 1, "hidden": 16, "emb": 16,
                  "rate": 0.5, "tied": True, "dropout": 0.2},
        "train": {"epochs": 2, "batch_size": 8, "bptt_len": 16, "lr0": 0.5},
        "data": {"train": str(tmp_path / "train.txt"),
                 "valid": str(tmp_path / "valid.txt"),
                 "test": str(tmp_path / "test.txt"),
                 "mode": "char"},
        "output": {"metrics": str(tmp_path / "metrics.jsonl"),
                   "checkpoint": str(tmp_path / "model.npz")},
    }
    for section, patch in overrides.items():
        if patch is None:
            cfg.pop(section)
        else:
            cfg[section].update(patch)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def tiny_data(tmp_path):
    text = (CORPUS / "train.txt").read_text()[:12_000]
    (tmp_path / "train.txt").write_text(text)
    (tmp_path / "valid.txt").write_text(text[:2500])
    (tmp_path / "test.txt").write_text(text[2500:5000])
    return tmp_path


class TestTrain:
    def test_smoke_run_writes_metrics_and_checkpoints(self, tiny_data, capsys):
        config = write_config(tiny_data, train={"epochs": 5})
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 0
        records = [json.loads(line)
                   for line in (tiny_data / "metrics.jsonl").read_text().splitlines()]
        assert len(records) == 5
        losses = [r["train_loss"] for r in records]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert (tiny_data / "model.npz").exists()
        assert (tiny_data / "model.npz.final").exists()
        assert "test perplexity" in capsys.readouterr().out

    def test_missing_data_path_names_field(self, tmp_path, capsys):
        config = write_config(tmp_path, data=None)
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 2
        assert "data.train" in capsys.readouterr().err

    def test_zero_epochs_rejected(self, tiny_data):
        config = write_config(tiny_data)
        assert cli.main(["train", "--config", str(config), "--seed", "1",
                         "--epochs", "0"]) == 2

    def test_unknown_config_key_rejected(self, tiny_data, capsys):
        config = write_config(tiny_data, model={"warmup": 5})
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 2
        assert "warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("section, patch", [("train", {"dropout": 0.5}),
                                                ("model", {"dropout": -0.1})])
    def test_dropout_only_as_valid_model_rate(self, tiny_data, capsys, section, patch):
        # model.dropout is the rate that trains; train.dropout is an unknown key
        config = write_config(tiny_data, **{section: patch})
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 2
        assert "dropout" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tiny_data, capsys):
        config = write_config(tiny_data)
        config.write_text(config.read_text()[:-1] + ",}")   # a trailing comma
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 2
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("section, patch", [("model", {"layers": "2"}),
                                                ("model", {"tied": "yes"}),
                                                ("model", {"rate": [0.5, 0.5]}),
                                                ("train", {"epochs": "2"}),
                                                ("data", {"valid": ["valid.txt"]}),
                                                ("data", {"mode": 1}),
                                                ("output", {"metrics": 1.5}),
                                                ("output", {"checkpoint": ["model.npz"]})])
    def test_wrongly_typed_field_exits_2(self, tiny_data, capsys, section, patch):
        config = write_config(tiny_data, **{section: patch})
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 2
        assert f"{section}.{next(iter(patch))}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value", [("model", [1]), ("train", [["epochs", 2]]),
                                                ("data", "train.txt"), ("output", 5),
                                                (None, 5), (None, [{"model": {}}])])
    def test_non_object_config_exits_2(self, tiny_data, capsys, section, value):
        config = write_config(tiny_data)
        raw = json.loads(config.read_text())
        if section is None:
            raw = value
        else:
            raw[section] = value
        config.write_text(json.dumps(raw))
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_integer_path_is_no_file_descriptor(self, tiny_data):
        # open(0) would read standard input as the training corpus
        config = write_config(tiny_data, data={"train": 0})
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        with open(tiny_data / "train.txt", "rb") as stdin:
            proc = subprocess.run([sys.executable, "-m", "rrnn.cli", "train", "--config",
                                   str(config), "--seed", "1"], stdin=stdin,
                                  capture_output=True, text=True, env=env, timeout=300)
            offset = os.lseek(stdin.fileno(), 0, os.SEEK_CUR)
        assert proc.returncode == 2
        assert "data.train" in proc.stderr
        assert offset == 0   # the child shares the offset: it read nothing

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "nope.json"),
                         "--seed", "1"]) == 2

    def test_without_valid_split_writes_best_checkpoint(self, tiny_data, capsys):
        config = write_config(tiny_data, data={"valid": None})
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 0
        line = [x for x in capsys.readouterr().out.splitlines() if x.startswith("checkpoints:")]
        best = line[0].split("best=")[1].split()[0]
        assert Path(best).exists()

    def test_diverging_run_exits_3(self, tiny_data, capsys):
        config = write_config(tiny_data, train={"lr0": 1e300, "clip_norm": 1e300})
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["train", "--config", str(config), "--seed", "1"])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err


def test_module_runs_as_script():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "rrnn.cli", "count-params", "--family", "rnn",
                           "--rates", "1"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0
    assert "120,600" in proc.stdout


class TestEval:
    def test_eval_matches_training_test_perplexity(self, tiny_data, capsys):
        config = write_config(tiny_data, train={"epochs": 2})
        assert cli.main(["train", "--config", str(config), "--seed", "3"]) == 0
        trained = capsys.readouterr().out
        final_ppl = [line for line in trained.splitlines() if "test perplexity" in line][-1]
        assert cli.main(["eval", "--checkpoint", str(tiny_data / "model.npz.final"),
                         "--data", str(tiny_data / "test.txt"), "--mode", "char",
                         "--batch-size", "8", "--bptt-len", "16"]) == 0
        evaled = capsys.readouterr().out
        assert final_ppl.split("perplexity")[-1].strip() == \
            evaled.split("perplexity")[-1].strip()

    def test_round_trip_is_deterministic(self, tiny_data, capsys):
        config = write_config(tiny_data)
        cli.main(["train", "--config", str(config), "--seed", "4"])
        capsys.readouterr()
        args = ["eval", "--checkpoint", str(tiny_data / "model.npz"),
                "--data", str(tiny_data / "valid.txt"),
                "--batch-size", "8", "--bptt-len", "16"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_wrong_vocab_data_exits_2(self, tiny_data, capsys):
        config = write_config(tiny_data)
        cli.main(["train", "--config", str(config), "--seed", "5"])
        capsys.readouterr()
        alien = tiny_data / "alien.txt"
        alien.write_text("ΩΨΦΞΩΨΦΞ" * 200)
        assert cli.main(["eval", "--checkpoint", str(tiny_data / "model.npz"),
                         "--data", str(alien), "--batch-size", "4",
                         "--bptt-len", "8"]) == 2

    def test_word_checkpoint_evaluates_in_its_own_mode(self, tiny_data, capsys):
        config = write_config(tiny_data, data={"mode": "word"})
        assert cli.main(["train", "--config", str(config), "--seed", "6"]) == 0
        trained = capsys.readouterr().out
        final_ppl = [line for line in trained.splitlines() if "test perplexity" in line][-1]
        assert cli.main(["eval", "--checkpoint", str(tiny_data / "model.npz.final"),
                         "--data", str(tiny_data / "test.txt"),
                         "--batch-size", "8", "--bptt-len", "16"]) == 0
        evaled = capsys.readouterr().out
        assert final_ppl.split("perplexity")[-1].strip() == \
            evaled.split("perplexity")[-1].strip()

    def test_mode_contradicting_checkpoint_exits_2(self, tiny_data, capsys):
        config = write_config(tiny_data, data={"mode": "word"}, train={"epochs": 1})
        assert cli.main(["train", "--config", str(config), "--seed", "7"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(tiny_data / "model.npz"),
                         "--data", str(tiny_data / "test.txt"), "--mode", "char",
                         "--batch-size", "8", "--bptt-len", "16"]) == 2
        assert "word" in capsys.readouterr().err

    def test_checkpoint_with_differing_layer_rates_exits_2(self, tiny_data, capsys):
        config = write_config(tiny_data, model={"layers": 2}, train={"epochs": 1})
        assert cli.main(["train", "--config", str(config), "--seed", "8"]) == 0
        capsys.readouterr()
        path = tiny_data / "model.npz"
        with np.load(path) as npz:
            arrays = dict(npz)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["rates"][1] = [[0.5] * 4, [0.0] * 4]   # the arrays still fit rates[0]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        assert cli.main(["eval", "--checkpoint", str(path),
                         "--data", str(tiny_data / "test.txt"),
                         "--batch-size", "8", "--bptt-len", "16"]) == 2
        assert "rate" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["missing_array", "missing_meta_key", "not_npz"])
    def test_damaged_checkpoint_exits_2(self, tiny_data, capsys, damage):
        path = tiny_data / "model.npz"
        LanguageModel("lstm", 8, layers=2, hidden=6, emb=6, id_to_token=list("abcdefgh"),
                      mode="char").save(path)
        with np.load(path) as npz:
            arrays = dict(npz)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        if damage == "missing_array":
            del arrays["layer1_b"]
        elif damage == "missing_meta_key":
            del meta["hidden"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as fh:
            if damage == "not_npz":
                fh.write(b"not a checkpoint\n")
            else:
                np.savez(fh, **arrays)
        assert cli.main(["eval", "--checkpoint", str(path),
                         "--data", str(tiny_data / "test.txt"),
                         "--batch-size", "8", "--bptt-len", "16"]) == 2
        assert "damaged checkpoint" in capsys.readouterr().err


class TestCountParams:
    def test_table_values(self, capsys):
        assert cli.main(["count-params", "--family", "lstm", "--rates", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "542,700" in out and "552,700" in out

    def test_gru_r0(self, capsys):
        assert cli.main(["count-params", "--family", "gru", "--rates", "0"]) == 0
        out = capsys.readouterr().out
        assert "723,600" in out and "733,600" in out

    def test_rnn_r1(self, capsys):
        assert cli.main(["count-params", "--family", "rnn", "--rates", "1"]) == 0
        out = capsys.readouterr().out
        assert "120,600" in out and "130,600" in out

    def test_matches_enumeration_code_path(self, capsys):
        from rrnn import restriction as R
        cli.main(["count-params", "--family", "gru", "--hidden", "30", "--emb", "30",
                  "--layers", "2", "--rates", "0.3"])
        out = capsys.readouterr().out
        plan = R.plan_restriction(2, 3, 30, [30, 30], [[0.3] * 3] * 2)
        expect = 2 * R.count_parameters(plan).restricted
        assert f"{expect:,}" in out


class TestGradcheck:
    @pytest.mark.parametrize("family,rate", [("lstm", 0.5), ("rnn", 1.0)])
    def test_passes(self, family, rate, capsys):
        code = cli.main(["gradcheck", "--family", family, "--d", "4", "--k", "4",
                         "--rate", str(rate)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_backward_rule_fails(self, monkeypatch, capsys):
        # negative control: breaking tanh's derivative must be caught
        from rrnn import tensor as T

        true_tanh = T.tanh

        def bad_tanh(a):
            out = np.tanh(a.data)

            def backprop(g):
                return (g * (1.0 - 0.9 * out * out),)

            return T.from_op(out, (a,), backprop, "tanh")

        monkeypatch.setattr(T, "tanh", bad_tanh)
        code = cli.main(["gradcheck", "--family", "rnn", "--d", "4", "--k", "4",
                         "--rate", "0.5"])
        monkeypatch.setattr(T, "tanh", true_tanh)
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_large_dims_rejected(self):
        assert cli.main(["gradcheck", "--family", "rnn", "--d", "16", "--k", "4",
                         "--rate", "0.5"]) == 2

    def test_shared_entries_sum_view_paths(self):
        report = run_gradcheck("rnn", 2, 2, 1.0, seed=0)
        assert report.passed
