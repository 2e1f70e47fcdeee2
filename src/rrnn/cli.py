"""Command-line entry point: train, eval, count-params, gradcheck.

Exit codes: 0 ok, 1 a gradient check that fails, 2 usage/config error, a
file that cannot be read or written or a size that no array can hold, 3
numeric failure during training.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

from . import data as D
from . import gradcheck as G
from . import training as Tr
from .cells import GATE_COUNT
from .errors import ConfigError, NumericError, RRNNError, ValidationError
from .model import (LanguageModel, head_shapes, json_rate_matrix, json_typed, layer_counts,
                    layer_specs)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


# JSON type of each key of each config section; (kind, None) may be null,
# and model.rate also takes a 2 x n matrix.  A path must be a string, since
# open() would take an int as a file descriptor.
SECTIONS = {
    "model": {"family": str, "layers": int, "hidden": int, "emb": int, "rate": float,
              "tied": bool, "dropout": float},
    "train": {f.name: f.type for f in fields(Tr.TrainConfig) if f.name != "seed"},
    "data": {"train": (str, None), "valid": (str, None), "test": (str, None), "mode": str},
    "output": {"metrics": (str, None), "checkpoint": (str, None)},
}


def _typed(name, value, kind):
    """value, if its JSON type is kind: a bool is no number, an int is a float."""
    if kind is float and isinstance(value, list) and name == "model.rate":
        return json_rate_matrix(name, value)
    return json_typed(name, value, kind)


@dataclass
class RunConfig:
    """Config file schema.  Its defaults and TrainConfig's are the reference
    experimental setup, which ``count-params`` and ``eval`` default to too."""

    family: str = "lstm"
    layers: int = 3
    hidden: int = 200
    emb: int = 200
    rate: object = 0.5       # scalar, or full 2 x n matrix
    tied: bool = True
    dropout: float = 0.2
    train_cfg: Tr.TrainConfig = field(default_factory=Tr.TrainConfig)
    train_path: str = None
    valid_path: str = None
    test_path: str = None
    mode: str = "char"
    metrics_path: str = None
    checkpoint_path: str = None

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as err:   # malformed JSON or not UTF-8
                raise ConfigError(f"config {path} is not valid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object, got {raw!r}")
        unknown = set(raw) - set(SECTIONS)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        got = {name: {} for name in SECTIONS}
        for name, section in raw.items():
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name} must be a JSON object, got {section!r}")
            if name == "train" and "seed" in section:
                raise ConfigError("train.seed is not a config field: the run seed is --seed")
            unknown = set(section) - set(SECTIONS[name])
            if unknown:
                raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
            got[name] = {key: _typed(f"{name}.{key}", value, SECTIONS[name][key])
                         for key, value in section.items()}
        data, out = got["data"], got["output"]
        cfg = cls(**got["model"], train_cfg=Tr.TrainConfig(**got["train"]),
                  train_path=data.get("train"), valid_path=data.get("valid"),
                  test_path=data.get("test"), mode=data.get("mode", cls.mode),
                  metrics_path=out.get("metrics"), checkpoint_path=out.get("checkpoint"))
        if cfg.family not in GATE_COUNT:
            raise ConfigError(f"unknown cell family {cfg.family!r}")
        if cfg.train_path is None:
            raise ConfigError("config is missing data.train (path to training text)")
        return cfg


def _parse_rates(text):
    """'0.5' or '0,0.3,0.5' -> list of floats."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse rates {text!r}") from None


def cmd_train(args):
    cfg = RunConfig.from_file(args.config)
    epochs = cfg.train_cfg.epochs if args.epochs is None else args.epochs
    cfg.train_cfg = replace(cfg.train_cfg, epochs=epochs, seed=args.seed)   # validates both

    stream = D.load_splits(cfg.train_path, cfg.valid_path, cfg.test_path, mode=cfg.mode)
    tc = cfg.train_cfg
    train_b = D.batchify(stream.train, tc.batch_size, tc.bptt_len)
    valid_b = D.batchify(stream.valid, tc.batch_size, tc.bptt_len) if stream.valid is not None else None
    test_b = D.batchify(stream.test, tc.batch_size, tc.bptt_len) if stream.test is not None else None

    model = LanguageModel(cfg.family, stream.vocab.size, layers=cfg.layers,
                          hidden=cfg.hidden, emb=cfg.emb, rates=cfg.rate, tied=cfg.tied,
                          dropout=cfg.dropout, seed=tc.seed,
                          id_to_token=stream.vocab.id_to_token, mode=cfg.mode)

    metrics_file = open(cfg.metrics_path, "w", encoding="utf-8") if cfg.metrics_path else None

    def on_epoch(record):
        if metrics_file is not None:
            metrics_file.write(json.dumps(record) + "\n")
            metrics_file.flush()
        print(f"epoch {record['epoch']:3d}  lr {record['lr']:.4f}  "
              f"train ppl {record['train_ppl']:.2f}  valid ppl {record['valid_ppl']:.2f}")

    try:
        Tr.fit(model, train_b, valid_b, tc, checkpoint_path=cfg.checkpoint_path, on_epoch=on_epoch)
    finally:
        if metrics_file is not None:
            metrics_file.close()

    if cfg.checkpoint_path:
        final_path = cfg.checkpoint_path + ".final"
        model.save(final_path)
        print(f"checkpoints: best={cfg.checkpoint_path} final={final_path}")
    if test_b:
        tm = Tr.evaluate(model, test_b)
        print(f"test loss {tm['loss']:.6f}  test perplexity {tm['perplexity']:.4f}")
    return EXIT_OK


def cmd_eval(args):
    model = LanguageModel.load(args.checkpoint)
    if model.id_to_token is None:
        raise ConfigError("checkpoint carries no vocabulary; cannot encode data")
    vocab = D.Vocabulary.from_tokens(model.id_to_token)
    mode = args.mode or model.mode or "char"
    if model.mode is not None and mode != model.mode:
        raise ConfigError(f"--mode {mode} contradicts the checkpoint's {model.mode} vocabulary")
    ids = vocab.encode(D.tokenize(D.read_text(args.data), mode))
    batches = D.batchify(ids, args.batch_size, args.bptt_len)
    metrics = Tr.evaluate(model, batches)
    print(f"loss {metrics['loss']:.6f}  perplexity {metrics['perplexity']:.4f}")
    return EXIT_OK


def cmd_count_params(args):
    if args.layers < 1:
        raise ValidationError(f"--layers must be >= 1, got {args.layers}")
    if args.vocab < 0:
        raise ValidationError(f"--vocab must be >= 0, got {args.vocab}")
    rates = _parse_rates(args.rates)
    head = sum(map(math.prod, head_shapes(args.vocab, args.emb, args.hidden, args.tied).values()))
    print(f"family={args.family}  layers={args.layers}  hidden={args.hidden}  "
          f"emb={args.emb}  vocab={args.vocab}  tied={args.tied}")
    print(f"{'r':>6} {'P':>12} {'S_r':>12} {'P_r':>12} {'P_r+outbias':>12} {'C':>8}  per-layer P_r")
    for r in rates:
        per_layer, total = layer_counts(layer_specs(args.family, args.layers, args.emb,
                                                    args.hidden, r))
        with_bias = total.restricted + args.vocab  # output softmax bias reported alongside
        print(f"{r:>6.3g} {total.unrestricted:>12,} {total.shared:>12,} "
              f"{total.restricted:>12,} {with_bias:>12,} {total.compression:>8.4f}  "
              f"{[c.restricted for c in per_layer]}")
    if args.vocab:
        print(f"embedding/softmax head trainables: {head:,} (tied={args.tied})")
    return EXIT_OK


def cmd_gradcheck(args):
    report = G.run_gradcheck(args.family, args.d, args.k, args.rate, seed=args.seed)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}  max rel error {report.max_rel_error:.3e} over {report.checked} "
          f"pool entries; worst at {report.worst_entry}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser():
    p = argparse.ArgumentParser(prog="rrnn",
                                description="Restricted recurrent language models")
    sub = p.add_subparsers(dest="command", required=True)

    tp = sub.add_parser("train", help="train a model from a JSON config")
    tp.add_argument("--config", required=True)
    tp.add_argument("--seed", type=int, required=True,
                    help="run seed (required for reproducibility)")
    tp.add_argument("--epochs", type=int, default=None, help="override config epochs")
    tp.set_defaults(func=cmd_train)

    ep = sub.add_parser("eval", help="evaluate a checkpoint on a text file")
    ep.add_argument("--checkpoint", required=True)
    ep.add_argument("--data", required=True)
    ep.add_argument("--mode", choices=["char", "word"], default=None,
                    help="tokenization; defaults to the checkpoint's (char for "
                         "checkpoints that do not record it)")
    ep.add_argument("--batch-size", type=int, default=Tr.TrainConfig.batch_size)
    ep.add_argument("--bptt-len", type=int, default=Tr.TrainConfig.bptt_len)
    ep.set_defaults(func=cmd_eval)

    cp = sub.add_parser("count-params", help="parameter accounting table")
    cp.add_argument("--family", choices=sorted(GATE_COUNT), required=True)
    cp.add_argument("--layers", type=int, default=RunConfig.layers)
    cp.add_argument("--hidden", type=int, default=RunConfig.hidden)
    cp.add_argument("--emb", type=int, default=RunConfig.emb)
    cp.add_argument("--vocab", type=int, default=10000)
    cp.add_argument("--rates", default="0,0.1,0.3,0.5,0.7,0.9,0.95,1")
    cp.add_argument("--untied", dest="tied", action="store_false")
    cp.set_defaults(func=cmd_count_params)

    gp = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    gp.add_argument("--family", choices=sorted(GATE_COUNT), required=True)
    gp.add_argument("--d", type=int, default=4)
    gp.add_argument("--k", type=int, default=4)
    gp.add_argument("--rate", type=float, default=0.5)
    gp.add_argument("--seed", type=int, default=0)
    gp.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (RRNNError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
