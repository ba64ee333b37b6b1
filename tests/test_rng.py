import math
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from aprior.rng import BLOCK, GAMMA, MASK64, SplitMix64, _lanes, substream, words
from oracles import ScalarStream


def test_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_known_splitmix64_sequence():
    # published test vector for seed 1234567
    rng = SplitMix64(1234567)
    first = rng.next_u64()
    assert first == 6457827717110365317


def test_randbelow_bounds_and_coverage():
    rng = SplitMix64(7)
    seen = set()
    for _ in range(1000):
        x = rng.randbelow(5)
        assert 0 <= x < 5
        seen.add(x)
    assert seen == {0, 1, 2, 3, 4}


def test_randbelow_roughly_uniform():
    rng = SplitMix64(99)
    n, k = 10_000, 4
    counts = [0] * k
    for _ in range(n):
        counts[rng.randbelow(k)] += 1
    expected = n / k
    sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
    for c in counts:
        assert abs(c - expected) < 4 * sigma


def test_next_float_in_unit_interval():
    rng = SplitMix64(3)
    for _ in range(1000):
        u = rng.next_float()
        assert 0.0 <= u < 1.0


def test_substreams_are_independent_and_stable():
    a1 = substream(42, "channel")
    a2 = substream(42, "channel")
    b = substream(42, "selection")
    seq1 = [a1.next_u64() for _ in range(10)]
    assert seq1 == [a2.next_u64() for _ in range(10)]
    assert seq1 != [b.next_u64() for _ in range(10)]


# any 64-bit state, or one whose stream crosses 2**64 within the words read
STATES = st.one_of(
    st.integers(0, MASK64),
    st.builds(lambda steps, off: (off - steps * GAMMA) & MASK64,
              st.integers(1, 2 * BLOCK + 1), st.integers(-2, 2)))


@given(STATES)
def test_words_are_the_next_u64_words(state):
    # two blocks' worth and one word more, so the walk crosses two block ends;
    # the reference mixes one word at a time
    reference, rng = ScalarStream(state), SplitMix64(state)
    expected = [reference.next_u64() for _ in range(2 * BLOCK + 1)]
    assert list(islice(words(state), 2 * BLOCK + 1)) == expected
    assert [rng.next_u64() for _ in range(2 * BLOCK + 1)] == expected
    assert rng.state == reference.state


def test_words_build_one_set_of_lane_constants_in_total():
    for state in (0, 1, MASK64):
        next(words(state))
    assert _lanes.cache_info().currsize == 1


def test_importing_rng_loads_only_what_it_imports():
    # the package itself imports nothing, so `import aprior.rng` leaves the agent unloaded
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("import sys, aprior.rng; "
            "print(*sorted(m for m in sys.modules if m.startswith('aprior')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["aprior", "aprior.digest", "aprior.rng"]
