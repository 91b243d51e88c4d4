"""Seeded draws: ``matrix.TrialRandom`` gives exactly the stream of
``random.Random`` from the same seed, and ``suites._rand_rational`` gives
exactly the values and generator state of the Fraction it replaced.

The oracle is the standard library itself: every draw is compared with the
base class's method on a generator seeded alike, across the ranges and
sequences the package draws from, and the first draws at three seeds are
pinned as literals so that a change of the rule (here or in CPython) shows.
"""

import ast
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import spinorlab
from spinorlab.matrix import TrialRandom
from spinorlab.suites import _rand_rational

SRC = Path(spinorlab.__file__).resolve().parent

# every randint range the package draws from: _rand_rational's (-b, b), the
# transvection draws, cech's (0, k) and the cocycle's 32-bit seed
RANGES = (
    *((-b, b) for b in (2, 3, 4, 5, 6, 9)),
    (0, 2), (1, 3), (2, 4), (3, 6),
    *((0, k) for k in range(7)),
    (0, 2 ** 32 - 1),
)
# every sequence the package passes to choice
SEQUENCES = (
    (1, 1, 2, 3),
    [1, 2, 3, -1, -2],
    [1, 2],
    [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)],
    [1, -1, 2],
)


def draw_script(rng):
    """Every range and sequence once, interleaved with draws that only the
    base class makes (``randrange`` and ``random``)."""
    out = []
    for i, (a, b) in enumerate(RANGES):
        out.append(rng.randint(a, b))
        seq = SEQUENCES[i % len(SEQUENCES)]
        out.append(rng.choice(seq))
        if i % 3 == 0:
            out.append(rng.randrange(2 * (i % 4) + 2))
        if i % 5 == 0:
            out.append(rng.random())
    return out


def test_streams_match_the_base_class_draw_for_draw():
    for seed in range(1200):
        ours, base = TrialRandom(seed), random.Random(seed)
        assert draw_script(ours) == draw_script(base), seed
        assert ours.getstate() == base.getstate(), seed


def test_streams_match_at_large_and_derived_seeds():
    # the suites seed each trial with a 64-bit value
    for seed in (2 ** 63, 2 ** 64 - 1, 0x9E3779B97F4A7C15, 7919, 2 ** 32):
        ours, base = TrialRandom(seed), random.Random(seed)
        for _ in range(20):
            assert draw_script(ours) == draw_script(base)
        assert ours.getstate() == base.getstate()


PINNED = {
    0: [0, 3, 173879092, -2, 6, 0],
    1: [-4, 1, 1095513148, -1, 6, 0],
    2 ** 64 - 1: [-6, 1, 910393425, -2, 3, 0],
}


@pytest.mark.parametrize("seed", sorted(PINNED))
@pytest.mark.parametrize("cls", [TrialRandom, random.Random])
def test_pinned_first_draws(cls, seed):
    rng = cls(seed)
    got = [
        rng.randint(-6, 6), rng.choice((1, 1, 2, 3)), rng.randint(0, 2 ** 32 - 1),
        rng.choice([1, 2, 3, -1, -2]), rng.randint(3, 6), rng.randint(0, 0),
    ]
    assert got == PINNED[seed]


def old_rand_rational(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.choice([1, 1, 2, 3]))


@pytest.mark.parametrize("bound", [4, 5, 6, 9])
@pytest.mark.parametrize("cls", [random.Random, TrialRandom])
def test_rand_rational_matches_the_fraction_it_replaced(cls, bound):
    for seed in range(300):
        ours, old = cls(seed), random.Random(seed)
        for _ in range(8):
            x, y = _rand_rational(ours, bound), old_rand_rational(old, bound)
            assert x == y and type(x) is Fraction
            assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
        assert ours.getstate() == old.getstate()


def test_rand_rational_default_bound_is_six():
    ours, old = random.Random(5), random.Random(5)
    values = [_rand_rational(ours) for _ in range(200)]
    assert values == [old_rand_rational(old, 6) for _ in range(200)]
    assert {abs(v.numerator) for v in values} <= set(range(7))


class Exhausted(Exception):
    pass


class CountingTrialRandom(TrialRandom):
    """A TrialRandom that raises after 64 calls of getrandbits, so a loop
    that never ends fails the test instead of hanging it."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > 64:
            raise Exhausted
        return super().getrandbits(k)


def outcome(rng, method, *args):
    """What a draw returns or raises, and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("value", getattr(rng, method)(*args))
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize(
    "method, args",
    [
        ("randint", (3, 2)),  # empty range: n = 0
        ("randint", (1, 0)),
        ("randint", (0, -5)),
        ("choice", ([],)),
        ("choice", ((),)),
        ("randint", (0.5, 3)),  # float bounds
        ("randint", (0, 2.5)),
        ("randint", (0, 2.0)),  # an integral float is converted, with a warning
        ("randint", (True, 3)),  # a bool is an int to the base class
    ],
)
def test_bad_bounds_behave_as_in_the_base_class(method, args):
    ours, base = CountingTrialRandom(3), random.Random(3)
    assert outcome(ours, method, *args) == outcome(base, method, *args)
    assert ours.getstate() == base.getstate()


def test_an_empty_range_raises_before_any_draw():
    rng = CountingTrialRandom(0)
    with pytest.raises(ValueError, match="empty range"):
        rng.randint(1, 0)
    with pytest.raises(IndexError, match="empty sequence"):
        rng.choice([])
    assert rng.calls == 0


def random_constructions(source: str) -> list:
    """Calls into the random module, and imports from it, in a source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            out.append(f"from random import ... (line {node.lineno})")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "random"
        ):
            out.append(f"random.{node.func.attr}(...) (line {node.lineno})")
    return out


def test_lock_flags_every_construction_form():
    for source in (
        "import random\nrng = random.Random(1)\n",
        "from random import Random\n",
        "import random\nx = random.randint(0, 3)\n",
        "def f(s):\n    return random.Random(s)\n",
    ):
        assert random_constructions(source)
    assert not random_constructions("class T(random.Random):\n    pass\nrng = T(1)\n")


def test_the_package_draws_only_through_trial_random():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := random_constructions(path.read_text()))
    }
    assert found == {}
    assert TrialRandom.__mro__[1] is random.Random
