import random

import pytest

from knotbound.braid import BraidWord
from knotbound.laurent import LaurentPoly1, LaurentPoly2


def reciprocal(p: LaurentPoly1) -> LaurentPoly1:
    """Substitute the variable of ``p`` by its inverse."""
    return LaurentPoly1.from_dict({-e: c for e, c in p.terms})


def scale(p: LaurentPoly2, e_a: int, e_z: int, c: int = 1) -> LaurentPoly2:
    """``p`` times the monomial c a^{e_a} z^{e_z}."""
    return LaurentPoly2(tuple(((a + e_a, z + e_z), cc * c) for (a, z), cc in p.terms))


def random_word(rng: random.Random, strands: int, max_len: int,
                connected: bool = False, knot: bool = False) -> BraidWord:
    """Seeded random braid word; optionally covering all generators or a knot."""
    from knotbound.braid import closure_components

    gens = [g for g in range(1, strands)] + [-g for g in range(1, strands)]
    while True:
        letters = [rng.choice(gens) for _ in range(rng.randint(1, max_len))]
        if connected:
            present = {abs(e) for e in letters}
            missing = [g for g in range(1, strands) if g not in present]
            if len(letters) + len(missing) > max_len:
                continue
            letters.extend(missing)
            rng.shuffle(letters)
        w = BraidWord(strands, tuple(letters))
        if knot and closure_components(w) != 1:
            continue
        return w


@pytest.fixture(scope="session")
def kstar_word():
    from knotbound.braid import elrifai_k_word

    return elrifai_k_word(1)


@pytest.fixture(scope="session")
def kstar_khovanov(kstar_word):
    from knotbound.khovanov import braid_to_pd, reduced_khovanov

    return reduced_khovanov(braid_to_pd(kstar_word))
