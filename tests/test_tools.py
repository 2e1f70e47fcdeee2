import importlib.util
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
