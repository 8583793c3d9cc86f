#!/usr/bin/env python3
"""Regenerate expected/<workload>.txt for seed 2016 without any of the
repository's code: Python integers and math.sqrt over the same generated
words. Run from anywhere; rewrites the five files next to this script.

The harness compares its reference result (wordcount::native over bigint)
with these files, so a bug shared by every Rust path still shows.
Keep the generators below in step with benchmark/src/inputs.rs.
"""
import bisect
import math
import os

SEED = 2016
MASK = (1 << 64) - 1
ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


class SplitMix64:
    def __init__(self, seed):
        self.state = seed & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return (self.next() * n) >> 64

    def unit(self):
        return (self.next() >> 11) / float(1 << 53)


def word(rng):
    length = 3 + rng.below(6)
    return "".join(ALPHABET[rng.below(len(ALPHABET))] for _ in range(length))


def uniform_lines(lines, words_per_line, seed):
    rng = SplitMix64(seed)
    return [" ".join(word(rng) for _ in range(words_per_line)) for _ in range(lines)]


def zipf_lines(lines, words_per_line, vocabulary, seed):
    rng = SplitMix64(seed ^ 0x5A697066)
    seen, vocab = set(), []
    while len(vocab) < vocabulary:
        w = word(rng)
        if w not in seen:
            seen.add(w)
            vocab.append(w)
    cumulative, total = [], 0.0
    for rank in range(vocabulary):
        total += 1.0 / (rank + 1)
        cumulative.append(total)
    out = []
    for _ in range(lines):
        ranks = (
            min(bisect.bisect_right(cumulative, rng.unit() * total), vocabulary - 1)
            for _ in range(words_per_line)
        )
        out.append(" ".join(vocab[r] for r in ranks))
    return out


def hash_total(lines):
    """Sum over words of sqrt(word read as a base-36 integer), in order."""
    total = 0.0
    for line in lines:
        for w in line.split():
            total += math.sqrt(int(w, 36))
    mantissa, exponent = f"{total:.11e}".split("e")
    return f"total {mantissa}e{int(exponent)}\n"  # 12 significant digits


def frequency_report(lines):
    counts = {}
    for line in lines:
        for w in line.split():
            counts[w] = counts.get(w, 0) + 1  # dicts keep first-appearance order
    report = [f"{w}={n}" for w, n in counts.items()]
    text = f"lines {len(report)}\n"
    text += "".join(f"first {l}\n" for l in report[:5])
    text += "".join(f"last {l}\n" for l in report[-5:])
    return text


def main():
    light = hash_total(uniform_lines(2000, 10, SEED))
    files = {
        "seq_light": light,
        "pipe_light": light,
        "compile_heavy": light,  # the same lines, one shard each
        "mapreduce_heavy": hash_total(uniform_lines(100, 10, SEED)),
        "strings_report": frequency_report(zipf_lines(2000, 10, 4096, SEED)),
    }
    here = os.path.dirname(os.path.abspath(__file__))
    for name, text in files.items():
        with open(os.path.join(here, name + ".txt"), "w") as f:
            f.write(text)


if __name__ == "__main__":
    main()
