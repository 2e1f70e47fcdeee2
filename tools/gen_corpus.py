"""Generate the desk-scale character corpus shipped under corpus/.

The text is original, machine-composed English-like prose (dedicated to
the public domain) produced from a small grammar with a fixed seed, so
tests need no dataset download.  Re-running this script reproduces the
shipped files byte for byte.
"""

import random
from pathlib import Path

SEED = 20190550
# (file, target bytes), drawn from one rng in this order
SPLITS = [("train.txt", 100_000), ("valid.txt", 10_000), ("test.txt", 10_000)]

SUBJECTS = ["the river", "a young fox", "the old miller", "our quiet village",
            "the north wind", "a grey heron", "the ferry keeper", "the harvest moon",
            "an early frost", "the market crowd", "the lighthouse", "a wandering tinker",
            "the schoolhouse bell", "the fishing fleet", "the cedar grove"]
VERBS = ["watches", "crosses", "remembers", "follows", "wakes", "shelters",
         "carries", "greets", "outlasts", "circles", "warms", "mends",
         "gathers", "answers", "steadies"]
OBJECTS = ["the narrow bridge", "a line of geese", "the winter road", "its own shadow",
           "the morning tide", "a basket of apples", "the last lantern", "the open field",
           "a song from the hills", "the turning season", "the far shore",
           "a patient silence", "the first snowfall", "the low stone wall"]
TAILS = ["before dawn", "without hurry", "as the light fades", "year after year",
         "beneath a pale sky", "when the rain ends", "along the towpath",
         "in the late summer", "against the cold", "past the mill gate"]


def sentence(rng):
    parts = [rng.choice(SUBJECTS), rng.choice(VERBS), rng.choice(OBJECTS)]
    if rng.random() < 0.6:
        parts.append(rng.choice(TAILS))
    text = " ".join(parts)
    return text[0].upper() + text[1:] + "."


def paragraph(rng):
    return " ".join(sentence(rng) for _ in range(rng.randint(3, 6)))


def generate(rng, target_bytes):
    out = []
    size = 0
    while size < target_bytes:
        p = paragraph(rng)
        out.append(p)
        size += len(p) + 1
    return "\n".join(out) + "\n"


def main():
    root = Path(__file__).resolve().parent.parent / "corpus"
    root.mkdir(exist_ok=True)
    rng = random.Random(SEED)
    for name, size in SPLITS:
        (root / name).write_text(generate(rng, size), encoding="utf-8")
        print(name, (root / name).stat().st_size, "bytes")


if __name__ == "__main__":
    main()
