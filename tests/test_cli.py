import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rrnn import cells as C
from rrnn import cli
from rrnn import restriction as R
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


def unallocatable(*args, **kwargs):
    """The build of a model 10**12 wide, failing as numpy does, without the
    request: on a machine that overcommits, a real one could be granted."""
    raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                      "(1000000000000,) and data type int64")


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
        out = capsys.readouterr().out
        assert "test perplexity" in out
        # one line per epoch, formatted from that epoch's record, in order
        assert out.splitlines()[:5] == [
            f"epoch {r['epoch']:3d}  lr {r['lr']:.4f}  train ppl {r['train_ppl']:.2f}  "
            f"valid ppl {r['valid_ppl']:.2f}" for r in records]

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

    def test_seed_only_on_the_command_line(self, tiny_data, capsys):
        # a train.seed in the file would be validated and then replaced by --seed
        config = write_config(tiny_data, train={"seed": 3})
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 2
        assert "--seed" in capsys.readouterr().err

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

    @pytest.mark.parametrize("broken", ["config_is_directory", "train_is_directory",
                                        "train_not_utf8", "valid_not_utf8"])
    def test_unreadable_input_exits_2(self, tiny_data, capsys, broken):
        # each ended in a traceback with exit 1
        config = write_config(tiny_data)
        if broken == "config_is_directory":
            config = tiny_data
        elif broken == "train_is_directory":
            config = write_config(tiny_data, data={"train": str(tiny_data)})
        else:
            name = broken.split("_")[0] + ".txt"
            (tiny_data / name).write_bytes(b"caf\xe9 " * 200)
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tiny_data) in err
        assert "UTF-8" in err or "directory" in err

    def test_negative_seed_exits_2(self, tiny_data, capsys):
        config = write_config(tiny_data)
        assert cli.main(["train", "--config", str(config), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_without_valid_split_writes_best_checkpoint(self, tiny_data, capsys):
        config = write_config(tiny_data, data={"valid": None})
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 0
        line = [x for x in capsys.readouterr().out.splitlines() if x.startswith("checkpoints:")]
        best = line[0].split("best=")[1].split()[0]
        assert Path(best).exists()

    @pytest.mark.parametrize("name, value", [("lr0", math.nan), ("momentum", math.nan),
                                             ("weight_decay", math.nan),
                                             ("clip_norm", math.nan), ("lr0", math.inf)])
    def test_non_finite_optimizer_value_exits_2(self, tmp_path, capsys, name, value):
        # JSON readers accept NaN and Infinity; on a one-window corpus such a
        # value trained to all-NaN parameters and exited 0
        (tmp_path / "train.txt").write_text((CORPUS / "train.txt").read_text()[:36])
        config = write_config(tmp_path, train={name: value, "epochs": 1, "batch_size": 4,
                                               "bptt_len": 8},
                              data={"valid": None, "test": None})
        assert "NaN" in config.read_text() or "Infinity" in config.read_text()
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "model.npz").exists()

    @pytest.mark.parametrize("name, value", [("clip_norm", 0), ("momentum", 1),
                                             ("momentum", 1.5)])
    def test_degenerate_optimizer_value_exits_2(self, tmp_path, capsys, name, value):
        # clip_norm 0 zeroed every gradient and momentum 1 never forgot one;
        # both trained and exited 0
        (tmp_path / "train.txt").write_text((CORPUS / "train.txt").read_text()[:36])
        config = write_config(tmp_path, train={name: value, "epochs": 1, "batch_size": 4,
                                               "bptt_len": 8},
                              data={"valid": None, "test": None})
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "model.npz").exists()

    def test_untied_head_over_wider_hidden_trains(self, tiny_data, capsys):
        # the decoder multiplies the hidden-wide features, not the embedding
        config = write_config(tiny_data, model={"tied": False, "emb": 8, "hidden": 16},
                              train={"epochs": 1})
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 0
        model = LanguageModel.load(tiny_data / "model.npz")
        assert model.head.decoder.data.shape == (model.vocab, 16)

    def test_diverging_run_exits_3(self, tiny_data, capsys):
        config = write_config(tiny_data, train={"lr0": 1e300, "clip_norm": 1e300})
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["train", "--config", str(config), "--seed", "1"])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_size_that_no_array_can_hold_exits_2(self, tiny_data, monkeypatch, capsys):
        monkeypatch.setattr(cli, "LanguageModel", unallocatable)
        config = write_config(tiny_data, model={"hidden": 10**12, "emb": 10**12})
        assert cli.main(["train", "--config", str(config), "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate 7.28 TiB")


def test_module_runs_as_script():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "rrnn.cli", "count-params", "--family", "rnn",
                           "--rates", "1"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0
    assert "120,600" in proc.stdout


def save_with_meta(path, field, value):
    """Save a one-layer LSTM checkpoint at path, its meta's field set to value."""
    LanguageModel("lstm", 8, layers=1, hidden=6, emb=6, rates=0.5, tied=True, dropout=0.2,
                  id_to_token=list("abcdefgh"), mode="char").save(path)
    with np.load(path) as npz:
        arrays = dict(npz)
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta[field] = value
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


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

    @pytest.mark.parametrize("family, rates", [
        ("gru", [[0.4, 0.2, 0.6], [0.8, 0.8, 0.2]]),
        ("lstm", [[0.4, 0.2, 0.6, 1.0], [0.8, 0.8, 0.2, 0.0]])])
    def test_non_uniform_rate_matrix_round_trip(self, tiny_data, capsys, family, rates):
        config = write_config(tiny_data, model={"family": family, "layers": 2, "rate": rates})
        assert cli.main(["train", "--config", str(config), "--seed", "9"]) == 0
        capsys.readouterr()
        with np.load(tiny_data / "model.npz") as npz:
            meta = json.loads(bytes(npz["meta"]).decode("utf-8"))
        assert meta["rates"] == [rates, rates]
        records = [json.loads(line)
                   for line in (tiny_data / "metrics.jsonl").read_text().splitlines()]
        assert cli.main(["eval", "--checkpoint", str(tiny_data / "model.npz"),
                         "--data", str(tiny_data / "valid.txt"),
                         "--batch-size", "8", "--bptt-len", "16"]) == 0
        best = min(r["valid_loss"] for r in records)
        assert capsys.readouterr().out.startswith(f"loss {best:.6f} ")

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

    @pytest.mark.parametrize("damage", ["missing_array", "missing_meta_key", "not_npz",
                                        "nan_weight", "inf_weight", "stray_decoder"])
    def test_damaged_checkpoint_exits_2(self, tiny_data, capsys, damage):
        path = tiny_data / "model.npz"
        LanguageModel("lstm", 8, layers=2, hidden=6, emb=6, rates=0.5, tied=True, dropout=0.2,
                      id_to_token=list("abcdefgh"), mode="char").save(path)
        with np.load(path) as npz:
            arrays = dict(npz)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        if damage == "missing_array":
            del arrays["layer1_b"]
        elif damage == "missing_meta_key":
            del meta["hidden"]
        elif damage.endswith("_weight"):
            arrays["layer0_W"][0, 0] = np.nan if damage == "nan_weight" else np.inf
        elif damage == "stray_decoder":
            # a tied model has no decoder; this one was ignored and exited 0
            arrays["decoder"] = np.zeros((8, 6))
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as fh:
            if damage == "not_npz":
                fh.write(b"not a checkpoint\n")
            else:
                np.savez(fh, **arrays)
        assert cli.main(["eval", "--checkpoint", str(path),
                         "--data", str(tiny_data / "test.txt"),
                         "--batch-size", "8", "--bptt-len", "16"]) == 2
        err = capsys.readouterr().err
        assert "damaged checkpoint" in err
        assert "layer0_W" in err or not damage.endswith("_weight")

    @pytest.mark.parametrize("field, value", [
        ("layers", 1000000000), ("layers", 2), ("hidden", 7), ("emb", 7), ("vocab", 9),
        ("tied", False), ("rates", [[[0.25] * 4] * 2]), ("rates", []), ("hidden", 10**12),
        ("emb", 10**12), ("hidden", 0), ("hidden", -3), ("rates", [[[2.0] * 4] * 2]),
        ("dropout", 1.5), ("id_to_token", list("abcdefga")), ("id_to_token", list("abcdefghi")),
        ("id_to_token", list("abcdefg")), ("mode", "bytes")])
    def test_checkpoint_meta_that_its_arrays_contradict_exits_2_unbuilt(
            self, tiny_data, capsys, monkeypatch, field, value):
        # load reads the arrays' npy headers and exits 2 before it builds a
        # pool; a meta that claimed 10^9 layers built pools without end
        path = tiny_data / "model.npz"
        save_with_meta(path, field, value)

        def build_pool(plan, seed):
            raise AssertionError("load built a pool")

        monkeypatch.setattr(R, "build_pool", build_pool)
        assert cli.main(["eval", "--checkpoint", str(path),
                         "--data", str(tiny_data / "test.txt"),
                         "--batch-size", "8", "--bptt-len", "16"]) == 2
        err = capsys.readouterr().err
        assert "damaged checkpoint" in err or "the model needs" in err
        assert f"damaged checkpoint {path}: " in err

    @pytest.mark.parametrize("tokens", ["abcdefgh", "abcdefga", "abcdefghi"])
    def test_checkpoint_vocabulary_that_its_meta_contradicts_exits_2(self, tiny_data, capsys,
                                                                     tokens):
        # on a text in the checkpoint's own tokens, a repeated token (its
        # first id never read) and nine tokens for "vocab": 8 both evaluated
        # and exited 0
        path, data = tiny_data / "model.npz", tiny_data / "own.txt"
        data.write_text("abcdefg" * 40)
        save_with_meta(path, "id_to_token", list(tokens))
        code = cli.main(["eval", "--checkpoint", str(path), "--data", str(data),
                         "--batch-size", "4", "--bptt-len", "8"])
        if tokens == "abcdefgh":   # the checkpoint as saved
            assert code == 0
        else:
            assert code == 2
            assert f"damaged checkpoint {path}: meta describes no model (id_to_token" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("dropout", [5.0, 1.0, -0.5])
    def test_checkpoint_dropout_outside_0_1_exits_2(self, tiny_data, capsys, dropout):
        # such a checkpoint evaluated and exited 0
        path = tiny_data / "model.npz"
        save_with_meta(path, "dropout", dropout)
        assert cli.main(["eval", "--checkpoint", str(path),
                         "--data", str(tiny_data / "test.txt"),
                         "--batch-size", "8", "--bptt-len", "16"]) == 2
        assert "dropout rate must be in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("layers", "1"), ("emb", 4.0), ("vocab", "12"), ("id_to_token", 5),
        ("id_to_token", ["a", 2]), ("rates", "0.5"), ("rates", [[0.5, 0.5]]),
        ("tied", 1), (None, [])])
    def test_checkpoint_meta_of_the_wrong_type_exits_2(self, tiny_data, capsys, field, value):
        # each but the rates escaped as a TypeError with exit 1; "rates": "0.5"
        # exited 2 saying the layers had different rate matrices
        path = tiny_data / "model.npz"
        LanguageModel("lstm", 8, layers=1, hidden=6, emb=6, rates=0.5, tied=True, dropout=0.2,
                      id_to_token=list("abcdefgh"), mode="char").save(path)
        with np.load(path) as npz:
            arrays = dict(npz)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        if field is None:
            meta = value
        else:
            meta[field] = value
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        assert cli.main(["eval", "--checkpoint", str(path),
                         "--data", str(tiny_data / "test.txt"),
                         "--batch-size", "8", "--bptt-len", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: damaged checkpoint") and "meta" in err
        assert field is None or f"meta {field} must be of type" in err


    @pytest.mark.parametrize("broken", ["data_not_utf8", "data_is_directory",
                                        "checkpoint_is_directory"])
    def test_unreadable_input_exits_2(self, tiny_data, capsys, broken):
        # each ended in a traceback with exit 1
        checkpoint, data = tiny_data / "model.npz", tiny_data / "test.txt"
        LanguageModel("lstm", 8, layers=1, hidden=6, emb=6, rates=0.5, tied=True, dropout=0.2,
                      id_to_token=list("abcdefgh"), mode="char").save(checkpoint)
        if broken == "data_not_utf8":
            data.write_bytes(b"\xff\xfe" + b"abc" * 100)
        elif broken == "data_is_directory":
            data = tiny_data
        else:
            checkpoint = tiny_data
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                         "--batch-size", "4", "--bptt-len", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tiny_data) in err
        assert "UTF-8" in err or "directory" in err


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

    def test_untied_head_counts_a_hidden_wide_decoder(self, capsys):
        assert cli.main(["count-params", "--family", "lstm", "--untied", "--emb", "100",
                         "--hidden", "200", "--vocab", "10000", "--rates", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "head trainables: 3,010,000 (tied=False)" in out

    @pytest.mark.parametrize("flag, value", [("--layers", "0"), ("--layers", "-1"),
                                             ("--vocab", "-5")])
    def test_out_of_range_sizes_exit_2(self, capsys, flag, value):
        # --layers 0 divided by a zero total, --vocab -5 printed -1,005 trainables
        assert cli.main(["count-params", "--family", "lstm", flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_size_that_no_array_can_hold_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "layer_specs", unallocatable)
        assert cli.main(["count-params", "--family", "lstm", "--hidden", "1000000000000"]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate 7.28 TiB")

    def test_matches_enumeration_code_path(self, capsys):
        from rrnn import restriction as R
        cli.main(["count-params", "--family", "gru", "--hidden", "30", "--emb", "30",
                  "--layers", "2", "--rates", "0.3"])
        out = capsys.readouterr().out
        plan = R.plan_restriction(2, 3, 30, [30, 30], [[0.3] * 3] * 2)
        expect = 2 * R.count_parameters(plan).restricted
        assert f"{expect:,}" in out


    @pytest.mark.parametrize("family", ["rnn", "gru", "lstm"])
    @pytest.mark.parametrize("head", [[], ["--untied", "--emb", "100"]])
    def test_per_layer_counts_are_the_models(self, capsys, family, head):
        # the table's per-layer P_r and totals are the model's own counts
        assert cli.main(["count-params", "--family", family, "--vocab", "10",
                         "--rates", "0.3,0.5"] + head) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:4]]
        for rate, row in zip((0.3, 0.5), rows):
            model = LanguageModel(family, 10, layers=3, hidden=200,
                                  emb=100 if head else 200, rates=rate, tied=not head, dropout=0.2)
            per_layer, total = model.recurrent_counts()
            assert ast.literal_eval("".join(row[6:])) == [c.restricted for c in per_layer]
            assert row[1:4] == [f"{n:,}" for n in (total.unrestricted, total.shared,
                                                   total.restricted)]


class TestGradcheck:
    @pytest.mark.parametrize("family,rate", [("lstm", 0.5), ("rnn", 1.0)])
    def test_passes(self, family, rate, capsys):
        code = cli.main(["gradcheck", "--family", family, "--d", "4", "--k", "4",
                         "--rate", str(rate)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_backward_rule_fails(self, monkeypatch, capsys):
        # negative control: breaking the RNN rule's tanh derivative must be caught
        def bad_backward(dh, dc, s, dx, dg, h_prev, h, gh):
            np.multiply(dh, 1.0 - 0.9 * h * h, out=dx)
            return None, None

        monkeypatch.setitem(C._RULES, "rnn", (C._rnn_forward, bad_backward))
        code = cli.main(["gradcheck", "--family", "rnn", "--d", "4", "--k", "4",
                         "--rate", "0.5"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_negative_seed_exits_2(self, capsys):
        # np.random.default_rng raised ValueError and the run exited 1
        assert cli.main(["gradcheck", "--family", "rnn", "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_large_dims_rejected(self):
        assert cli.main(["gradcheck", "--family", "rnn", "--d", "16", "--k", "4",
                         "--rate", "0.5"]) == 2

    def test_shared_entries_sum_view_paths(self):
        report = run_gradcheck("rnn", 2, 2, 1.0, seed=0)
        assert report.passed
