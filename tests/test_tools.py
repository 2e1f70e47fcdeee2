import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_keep_only_pairs_whose_runs_both_exit_0(bench_pairs, monkeypatch):
    # a run that fails a check exits 1 but still prints its metrics
    codes = {("parent", 1): 1, ("change", 3): 1, ("change", 4): 2}
    calls = []

    def run_once(tree, workload, seconds):
        pair = sum(1 for t, _ in calls if t == tree)
        calls.append((tree, workload))
        return codes.get((tree, pair), 0), {"train_tok_s": 100.0 * pair + len(tree)}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "PAIRS", 6)
    trees = {"parent": "parent", "change": "change"}
    *_, (values, failed) = bench_pairs.pairs(trees, "w", 1, {"train_tok_s": "higher"})
    assert len(calls) == 12 and {w for _, w in calls} == {"w"}
    assert failed == {"parent": 1, "change": 2}
    kept = [0, 2, 5]
    assert [v["train_tok_s"] for v in values["parent"]] == [100.0 * k + 6 for k in kept]
    assert [v["train_tok_s"] for v in values["change"]] == [100.0 * k + 6 for k in kept]


def test_pairs_drop_a_pair_missing_a_metric(bench_pairs, monkeypatch):
    def run_once(tree, workload, seconds):
        return 0, ({} if tree == "change" else {"valid_ppl": 1.0})

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    trees = {"parent": "parent", "change": "change"}
    *_, (values, failed) = bench_pairs.pairs(trees, "w", 1, {"valid_ppl": "lower"})
    assert values == {"parent": [], "change": []}
    assert failed == {"parent": 0, "change": 0}


def test_gen_corpus_reproduces_the_shipped_corpus():
    # both char workloads and the CLI tests read these files
    spec = importlib.util.spec_from_file_location("gen_corpus", TOOLS / "gen_corpus.py")
    gen_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_corpus)
    corpus = TOOLS.parent / "corpus"
    rng = random.Random(gen_corpus.SEED)
    for name, size in gen_corpus.SPLITS:
        assert gen_corpus.generate(rng, size).encode("utf-8") == (corpus / name).read_bytes()


def test_window_faults_reports_each_window_of_a_round():
    # one round on desk: an evaluation over the 4 validation windows, then
    # the workload's 7 training windows between evaluations, then the
    # workspace's bytes
    proc = subprocess.run([sys.executable, str(TOOLS / "window_faults.py"),
                           "--workload", "desk-lstm-char", "--rounds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["workload"] == "desk-lstm-char" and result["seed"] == 1
    (round_,) = result["rounds"]
    for phase, windows in (("eval", 4), ("train", 7)):
        record = round_[phase]
        assert len(record["ms"]) == len(record["faults"]) == windows
        assert all(ms > 0 for ms in record["ms"])
        assert all(isinstance(n, int) and n >= 0 for n in record["faults"])
    # the workspace after the round: the 1x64 layer's h among its slots
    workspace = result["workspace"]
    assert workspace["slots"]["h 0"] == 8 * 64 * (35 + 1) * 80
    assert workspace["total"] == sum(workspace["slots"].values())
    # the process's peak resident set, in MB, holds at least the workspace
    assert isinstance(result["peak_rss_mb"], float)
    assert result["peak_rss_mb"] > workspace["total"] / 2**20
    # the resident set after set-up, before the first window, within the peak
    assert 0 < result["setup_rss_mb"] <= result["peak_rss_mb"]


SIZED_SOURCE = '''"""A module docstring
over two lines."""

import dataclasses
from dataclasses import dataclass, field


# a comment line
@dataclass
class Spec:
    """A class docstring."""

    a: int
    b: int = 2
    c: list = field(default_factory=list)
    d: tuple = field(init=False, repr=False)

    def method(self, x, y=1, *, z=None, w):
        return x   # a trailing comment leaves the line code


@dataclasses.dataclass(frozen=True)
class Frozen:
    e: int = 5


class Plain:
    f: int = 3


def g(p=0, q=1):
    """A function docstring

    with a blank line inside it."""
    return lambda r=3: r + p + q
'''


def test_src_size_counts_a_known_source():
    spec = importlib.util.spec_from_file_location("src_size", TOOLS / "src_size.py")
    src_size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_size)
    # settable: b, c; y, z; e; p, q; r.  Not a, d (field(init=...)), w
    # (no default) or Plain.f (no dataclass)
    assert src_size.measure(SIZED_SOURCE) == {
        "total": 35, "code": 17, "docstring": 6, "comment": 1, "blank": 11, "settable": 8}


def test_src_size_prints_every_module_and_the_sum():
    proc = subprocess.run([sys.executable, str(TOOLS / "src_size.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["module", "total", "code", "docstring", "comment", "blank",
                              "settable"]
    modules = sorted(p.name for p in (TOOLS.parent / "src" / "rrnn").glob("*.py"))
    assert [row.split()[0] for row in rows] == modules + ["total"]
    counts = [[int(n) for n in row.split()[1:]] for row in rows]
    assert counts[-1] == [sum(col) for col in zip(*counts[:-1])]
    assert all(total == sum(parts) for total, *parts, _ in counts)


def test_bench_pairs_runs_only_the_named_workload(bench_pairs, monkeypatch, tmp_path, capsys):
    # re-measuring one workload must not rerun the others' pairs
    calls = []

    def run_once(tree, workload, seconds):
        calls.append(workload)
        return 0, {"valid_ppl": 1.0}

    monkeypatch.setattr(bench_pairs, "git",
                        lambda *args: "0" * 40 if args[0] == "rev-parse" else "")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD", "--out", str(out),
                             "--workload", "ptb-gru-word"]) == 0
    assert calls == ["ptb-gru-word"] * 4
    assert list(json.loads(out.read_text())["workloads"]) == ["ptb-gru-word"]
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--out", str(out), "--workload", "no-such-workload"])
    assert exit_.value.code == 2 and "no-such-workload" in capsys.readouterr().err


def test_trajectory_prints_each_workloads_medians_in_file_order(tmp_path):
    # two tiny files named out of order: BENCH_9 landed before BENCH_10
    def bench(parent, change, won):
        summary = {"better": "lower", "parent_median": parent, "change_median": change,
                   "parent_iqr": 0.5, "pairs_won": won, "pairs": 10}
        return {"workloads": {"w": {"failed_runs": {}, "metrics": {
            "peak_rss_mb": summary, "setup_s": dict(summary, parent_median=0.0)}}}}

    for name, record in (("BENCH_10.json", bench(150.0, 120.0, 10)),
                         ("BENCH_9.json", bench(200.0, 150.0, 9))):
        (tmp_path / name).write_text(json.dumps(record))
    proc = subprocess.run([sys.executable, str(TOOLS / "trajectory.py"),
                           str(tmp_path / "BENCH_10.json"), str(tmp_path / "BENCH_9.json")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["w", "peak_rss_mb", "(lower", "is", "better)"],
        ["BENCH_9.json", "200", "->", "150", "0.750", "won", "9/10"],
        ["BENCH_10.json", "150", "->", "120", "0.800", "won", "10/10"],
        ["w", "setup_s", "(lower", "is", "better)"],
        ["BENCH_9.json", "0", "->", "150", "-", "won", "9/10"],
        ["BENCH_10.json", "0", "->", "120", "-", "won", "10/10"]]
