import pytest

from haarcp import builders
from haarcp.groups import direct_product, make_group


@pytest.fixture(scope="session")
def s3():
    return builders.symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return builders.symmetric(4)


@pytest.fixture(scope="session")
def q8():
    return builders.quaternion8()


@pytest.fixture(scope="session")
def d4():
    return builders.dihedral(4)


@pytest.fixture(scope="session")
def a5():
    return builders.alternating(5)


@pytest.fixture(scope="session")
def classification_landmarks(a5):
    """The groups above order 64 that the threshold scans add to the
    builtin corpus: S5, SL(2,5) (sharp at 3/40), A5 x C2 and A5 x C6."""
    return [
        ("symmetric 5", builders.symmetric(5)),
        ("sl25", builders.sl25()),
        ("alternating 5 x cyclic 2", direct_product(a5, builders.cyclic(2))),
        ("alternating 5 x cyclic 6", direct_product(a5, builders.cyclic(6))),
    ]


@pytest.fixture(scope="session")
def relabel():
    """relabel(G, rng): G with its element indices permuted at random, so
    that other members come first in their cosets and the identity moves."""
    def relabelled(G, rng):
        new = list(range(G.order))  # old index -> new index
        rng.shuffle(new)
        old = sorted(range(G.order), key=new.__getitem__)  # new index -> old
        rows = map(G.mul_table.__getitem__, old)
        return make_group([[new[row[b]] for b in old] for row in rows], G.name)
    return relabelled
