"""REP001 passing fixture: every draw flows through an explicit,
seeded generator."""

import random

import numpy as np


def jitter(seed: int) -> float:
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    return rng.random() + float(gen.random())


def machinery(seed: int):
    seq = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.PCG64(seq))
