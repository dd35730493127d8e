"""Shared helpers: cached streams, the batches-alone reference for billiard
codings and a count of their sorts, the Fibonacci numbers, the recoded
projections of a ternary morphism, and the perturbed two-letter corpus."""

import random
from functools import lru_cache

from sturmian_erasures import (
    Morphism,
    StRejection,
    compose,
    erase,
    fibonacci_stream,
    st_membership,
)
import sturmian_erasures.billiard as billiard_module
from sturmian_erasures.billiard import _Crossings
from sturmian_erasures.morphisms import E, ID2, PHI, PHIT


@lru_cache(maxsize=8)
def fib_prefix(length):
    return fibonacci_stream().prefix(length)


def sort_sizes(monkeypatch):
    """The number of items of each sort the billiard module runs from now on."""
    sizes = []

    def counting_sorted(items, **kwargs):
        out = sorted(items, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(billiard_module, "sorted", counting_sorted, raising=False)
    return sizes


def batches_alone(times):
    """_Crossings(times).letters: every letter from a batch, the reference
    for the one integer sort of a period."""
    return _Crossings(times).letters


def fibonacci_numbers(count):
    """u_0 = 0, u_1 = 1, u_(n+1) = u_n + u_(n-1); returns u_0..u_(count-1)."""
    if count < 0:
        raise ValueError("count must be >= 0")
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def projection_restriction(f, i, j):
    """The two-letter morphism on the letters other than i: erase j from
    their images, then recode the two letters left to 0, 1 in order.  A
    reference for mse_membership's projections that shares no code with mse."""
    recode = str.maketrans("012".replace(j, ""), "01")
    kept = "012".replace(i, "")
    return Morphism(
        {str(pos): erase(f.images[a], j).translate(recode) for pos, a in enumerate(kept)}
    )


def random_st_member(rng, max_factors=10):
    names = []
    m = ID2
    for _ in range(rng.randint(0, max_factors)):
        gen = rng.choice((E, PHI, PHIT))
        names.append(gen)
        m = compose(m, gen)
    return m


def _mutate(rng, images):
    im0, im1 = images
    which = rng.randrange(2)
    target = [im0, im1][which]
    op = rng.randrange(4)
    if op == 0 and target:
        i = rng.randrange(len(target))
        flipped = "1" if target[i] == "0" else "0"
        target = target[:i] + flipped + target[i + 1 :]
    elif op == 1 and target:
        i = rng.randrange(len(target))
        target = target[:i] + target[i + 1 :]
    elif op == 2:
        i = rng.randrange(len(target) + 1)
        target = target[:i] + rng.choice("01") + target[i:]
    else:
        i = rng.randrange(len(target) + 1)
        target = target[:i] + target[i:][::-1]
    out = [im0, im1]
    out[which] = target
    return tuple(out)


def perturbed_st_corpus(count=100, seed=20260814):
    """The first `count` distinct perturbations of random generator products
    that st_membership rejects, with their rejections."""
    rng = random.Random(seed)
    corpus = []
    seen = set()
    while len(corpus) < count:
        member = random_st_member(rng, max_factors=6)
        images = _mutate(rng, (member.images["0"], member.images["1"]))
        if images in seen:
            continue
        seen.add(images)
        candidate = Morphism({"0": images[0], "1": images[1]})
        outcome = st_membership(candidate)
        if isinstance(outcome, StRejection):
            corpus.append((candidate, outcome))
    return corpus
