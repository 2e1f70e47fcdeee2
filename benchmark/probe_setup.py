"""One fresh process from interpreter start to the first training window.

run.py starts this script several times and times each from spawn to
the "ready" line: imports, ``data.load_splits``, ``batchify`` and
``LanguageModel`` construction, as ``rrnn train`` does before training.

    python3 benchmark/probe_setup.py <workload> <seed> <corpus dir>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402  (needs the source tree on sys.path)


def main(argv):
    workload, seed, corpus_dir = W.WORKLOADS[argv[0]], int(argv[1]), argv[2]
    W.build(W.run_config(workload, ROOT, corpus_dir, seed))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
