"""REP001 failing fixture: ambient randomness everywhere."""

import random
import secrets
import uuid

import numpy as np
from numpy import random as nprandom


def jitter() -> float:
    random.seed(0)
    base = random.random()
    return base + np.random.rand()


def draw(n):
    rng = np.random.default_rng()
    picks = nprandom.randint(0, 10, size=n)
    token = secrets.token_hex(4)
    run_id = uuid.uuid4()
    return rng, picks, token, run_id
