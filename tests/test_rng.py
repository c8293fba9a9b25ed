"""Counter-based stream contracts: determinism, forking, counter discipline."""

import numpy as np
import pytest

from rra_uq.errors import ParameterError
from rra_uq.rng import _EXP_NEG2, _HASH_BLOCK, RngStream, bernoulli_threshold, normal_into

B = _HASH_BLOCK
TOP = 2 ** 53  # words are below this


def ndtri(u):
    """SciPy's ndtri, the reference the package's port must match bit for bit."""
    return pytest.importorskip("scipy.special").ndtri(u)


def ndtri_of_words(words):
    """SciPy's ndtri of the uniforms `normal_into` makes of 53-bit words."""
    return ndtri(np.minimum((words.astype(np.float64) + 0.5) * 2.0 ** -53, 1.0 - 2.0 ** -53))


def oracle_words(stream, n, offsets=None):
    """The stream's words in one shot: counters, times golden, plus key, mixed."""
    counters = np.arange(n, dtype=np.uint64) if offsets is None else offsets.astype(np.uint64)
    z = (counters + np.uint64(stream.counter)) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(stream._key)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def oracle_uniform01(stream, n):
    return (oracle_words(stream, n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


ORACLES = {
    "uniform": (lambda s, shape: s.uniform(-0.75, 2.5, shape),
                lambda s, n: -0.75 + (2.5 - -0.75) * oracle_uniform01(s, n)),
    "bernoulli": (lambda s, shape: s.bernoulli(0.3, shape),
                  lambda s, n: (oracle_uniform01(s, n) < 0.3).astype(np.float64)),
    "normal": (lambda s, shape: s.normal(0.5, 2.0, shape),
               lambda s, n: 0.5 + 2.0 * ndtri_of_words(oracle_words(s, n) >> np.uint64(11))),
    "permutation": (lambda s, shape: s.permutation(shape[0]),
                    lambda s, n: np.argsort(oracle_uniform01(s, n), kind="stable")),
}


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def start():
    return RngStream(606, stream_id=9, counter=B // 3 + 5)


def test_same_triple_same_sequence():
    a = RngStream(1234, stream_id=7)
    b = RngStream(1234, stream_id=7)
    assert np.array_equal(a.uniform(0, 1, (100,)), b.uniform(0, 1, (100,)))


def test_different_seed_different_sequence():
    a = RngStream(1, stream_id=7).uniform(0, 1, (64,))
    b = RngStream(2, stream_id=7).uniform(0, 1, (64,))
    assert not np.array_equal(a, b)


def test_counter_advances_by_element_count():
    s = RngStream(5)
    assert s.counter == 0
    s.uniform(0, 1, (2, 3, 4))
    assert s.counter == 24
    s.bernoulli(0.5, (7,))
    assert s.counter == 31
    s.normal(0, 1, ())
    assert s.counter == 32


def test_resume_from_counter_matches_one_shot():
    # drawing 10 then 10 equals drawing 20 in one call, row-major
    s1 = RngStream(99, stream_id=3)
    first = s1.uniform(0, 1, (10,))
    second = s1.uniform(0, 1, (10,))
    s2 = RngStream(99, stream_id=3)
    whole = s2.uniform(0, 1, (20,))
    assert np.array_equal(np.concatenate([first, second]), whole)


def test_chunk_invariance_across_shapes():
    s1 = RngStream(42)
    parts = [s1.uniform(0, 1, (2, 3)).ravel(), s1.uniform(0, 1, (4,))]
    s2 = RngStream(42)
    assert np.array_equal(np.concatenate(parts), s2.uniform(0, 1, (10,)))


@pytest.mark.parametrize("n", [1, 37, 200_003])
def test_raw_at_equals_raw_at_those_offsets(n):
    s = RngStream(77, stream_id=5, counter=1_000)
    offsets = RngStream(3).permutation(n)[: max(1, n // 3)]
    got = np.empty(offsets.size, dtype=np.uint64)
    for part, top53 in s.raw_at(offsets, got):
        part[...] = top53
    assert s.counter == 1_000
    assert np.array_equal(got, oracle_words(s, n)[offsets] >> np.uint64(11))


@pytest.mark.parametrize("name", sorted(ORACLES))
@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
def test_blocked_draw_matches_one_shot_oracle(name, n):
    draw, oracle = ORACLES[name]
    s = start()
    got = draw(s, (n,))
    assert s.counter == start().counter + n
    want = oracle(start(), n)
    assert got.shape == want.shape == (n,) and got.dtype == want.dtype
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("name", ["uniform", "bernoulli", "normal"])
def test_scalar_shape_draw_matches_oracle(name):
    draw, oracle = ORACLES[name]
    s = start()
    got = draw(s, ())
    assert got.shape == () and s.counter == start().counter + 1
    assert np.array_equal(bits(got.reshape(1)), bits(oracle(start(), 1)))


@pytest.mark.parametrize("q", [0.0, 2.0 ** -53, 0.5, 0.9, 1.0 - 2.0 ** -53, 1.0,
                               0.3, 1.0 / 3.0, 1e-300])
def test_bernoulli_integer_threshold_is_exact(q):
    n = 3 * B + 7
    got = start().bernoulli(q, (n,))
    want = (oracle_uniform01(start(), n) < q).astype(np.float64)
    assert np.array_equal(bits(got), bits(want))
    # the threshold's edges: k < t  <=>  k * 2**-53 < q
    t = int(bernoulli_threshold(q))
    for k in {0, 1, t - 1, t, t + 1, 2 ** 53 - 1}:
        if 0 <= k < 2 ** 53:
            assert (k < t) == (k * 2.0 ** -53 < q)


def test_bernoulli_at_the_drawn_words_own_edges():
    # probabilities at, just above and half a step above a drawn uniform k * 2**-53
    top53 = oracle_words(start(), B + 1) >> np.uint64(11)
    k = int(top53[top53 < 2 ** 52][0])
    at = np.flatnonzero(top53 == k)
    for q, drawn in ((k * 2.0 ** -53, 0.0), ((k + 1) * 2.0 ** -53, 1.0),
                     ((k + 0.5) * 2.0 ** -53, 1.0)):
        assert (start().bernoulli(q, (B + 1,))[at] == drawn).all()


def test_normal_at_the_extreme_words():
    # word 0 and the largest word; below the largest, (k + 0.5) * 2**-53 is
    # never 1, so the clamp leaves those words as they were
    top = 2 ** 53 - 1
    words = np.array([0, top - 1, top], dtype=np.int64)
    got = np.empty(3)
    normal_into(got, words, 0.0, 1.0)
    assert got[0] == pytest.approx(-8.2924, abs=5e-5)
    assert got[1] == ndtri((top - 1 + 0.5) * 2.0 ** -53)
    assert np.isfinite(got[2]) and got[2] == pytest.approx(8.2095, abs=5e-5)
    assert got[1] < got[2]


# the first of 4096 consecutive words
WORD_RUNS = {"lowest": 0,  # words below 114 have x = sqrt(-2 log u) >= 8
             "highest": TOP - 4096,  # the upper tail and the clamp
             "lower-edge": int(_EXP_NEG2 * TOP) - 2048,  # central fit meets tails
             "upper-edge": TOP - int(_EXP_NEG2 * TOP) - 2048}


@pytest.mark.parametrize("run", [*WORD_RUNS, "random"])
def test_normal_is_scipys_ndtri_bit_for_bit(run):
    if run == "random":
        words = (oracle_words(RngStream(25), 1 << 20) >> np.uint64(11)).astype(np.int64)
    else:
        words = np.arange(WORD_RUNS[run], WORD_RUNS[run] + 4096, dtype=np.int64)
    got = np.empty(words.size)
    normal_into(got, words, 0.0, 1.0)
    assert np.array_equal(bits(got), bits(ndtri_of_words(words)))


def test_bernoulli_into_out():
    out = np.full((3, B // 2), 7.0)
    s = start()
    got = s.bernoulli(0.3, out.shape, out=out)
    assert got is out and s.counter == start().counter + out.size
    assert np.array_equal(bits(got), bits(start().bernoulli(0.3, out.shape)))
    for bad in (np.empty((3, B // 2 + 1)), np.empty((B // 2, 3)).T,
                np.empty((3, B // 2), dtype=np.float32)):
        with pytest.raises(ParameterError):
            start().bernoulli(0.3, out.shape, out=bad)


def test_fork_does_not_advance_parent():
    s = RngStream(11)
    s.uniform(0, 1, (5,))
    before = s.counter
    child = s.fork(0)
    child.uniform(0, 1, (100,))
    assert s.counter == before
    # and the parent's continuation is unaffected by child draws
    s_ref = RngStream(11)
    s_ref.uniform(0, 1, (5,))
    assert np.array_equal(s.uniform(0, 1, (5,)), s_ref.uniform(0, 1, (5,)))


def test_fork_is_reproducible_and_indexed():
    a = RngStream(3).fork(4).uniform(0, 1, (16,))
    b = RngStream(3).fork(4).uniform(0, 1, (16,))
    c = RngStream(3).fork(5).uniform(0, 1, (16,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sibling_streams_uncorrelated():
    parent = RngStream(2024)
    n = 100_000
    x = parent.fork(0).uniform(0, 1, (n,))
    y = parent.fork(1).uniform(0, 1, (n,))
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) < 0.01


def test_grandchildren_uncorrelated():
    parent = RngStream(77)
    x = parent.fork(0).fork(0).uniform(0, 1, (50_000,))
    y = parent.fork(0).fork(1).uniform(0, 1, (50_000,))
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.02


class TestDistributions:
    def test_bernoulli_degenerate(self):
        s = RngStream(0)
        assert np.array_equal(s.bernoulli(1.0, (4,)), np.ones(4))
        assert np.array_equal(s.bernoulli(0.0, (4,)), np.zeros(4))

    def test_bernoulli_values_and_rate(self):
        draws = RngStream(8).bernoulli(0.3, (1_000_000,))
        assert set(np.unique(draws)) <= {0.0, 1.0}
        se = np.sqrt(0.3 * 0.7 / draws.size)
        assert abs(draws.mean() - 0.3) < 3 * se

    def test_uniform_bounds_and_mean(self):
        low, high = 1.0 / 8.0, 1.0 / 3.0
        draws = RngStream(9).uniform(low, high, (1_000_000,))
        assert draws.min() >= low and draws.max() < high
        sigma = (high - low) / np.sqrt(12.0)
        assert abs(draws.mean() - (low + high) / 2.0) < 3 * sigma / 1000.0

    def test_normal_moments(self):
        draws = RngStream(10).normal(2.0, 3.0, (1_000_000,))
        assert abs(draws.mean() - 2.0) < 3 * 3.0 / 1000.0
        assert abs(draws.std() - 3.0) < 0.01
        assert np.isfinite(draws).all()

    def test_normal_zero_sigma(self):
        assert np.array_equal(RngStream(1).normal(5.0, 0.0, (8,)), np.full(8, 5.0))

    def test_permutation_is_permutation(self):
        perm = RngStream(4).permutation(257)
        assert sorted(perm.tolist()) == list(range(257))

    def test_permutation_deterministic_and_consumes_counter(self):
        s = RngStream(4)
        p1 = s.permutation(50)
        assert s.counter == 50
        assert np.array_equal(p1, RngStream(4).permutation(50))


class TestParameterValidation:
    def test_uniform_rejects_empty_interval(self):
        with pytest.raises(ParameterError):
            RngStream(0).uniform(1.0, 1.0, (2,))
        with pytest.raises(ParameterError):
            RngStream(0).uniform(2.0, 1.0, (2,))

    def test_bernoulli_rejects_bad_prob(self):
        with pytest.raises(ParameterError):
            RngStream(0).bernoulli(-0.1, (2,))
        with pytest.raises(ParameterError):
            RngStream(0).bernoulli(1.5, (2,))

    def test_normal_rejects_negative_sigma(self):
        with pytest.raises(ParameterError):
            RngStream(0).normal(0.0, -1.0, (2,))
