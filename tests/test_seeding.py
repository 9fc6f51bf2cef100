import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cftp_rl.seeding import KeyedUniforms

WORD = st.integers(0, 2**64 - 1)

# Earlier uses of the shared Generator: an odd-length double draw leaves a
# part-used buffer, a 32-bit integer draw leaves has_uint32 set, and an
# earlier at() leaves the counter elsewhere.
EARLIER_USE = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 9).map(lambda k: 2 * k + 1)),
    st.tuples(st.just("int32"), st.integers(1, 5)),
    st.tuples(st.just("at"), WORD),
)


def draw(gen, k):
    """k doubles, then 32-bit integers, which read the half-word state."""
    return gen.random(k).tobytes() + gen.integers(0, 2**31, size=3, dtype=np.int32).tobytes()


def fresh_generator(seed, t):
    """The reference: a fresh Philox at counter (0, t, 0, 0), built here."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    counter = np.array([0, t, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


class TestKeyedUniforms:
    @settings(max_examples=150)
    @given(
        st.integers(0, 2**63 - 1),
        st.lists(EARLIER_USE, max_size=4),
        WORD,
        st.integers(0, 40),
    )
    def test_draw_equals_a_fresh_philox_after_any_earlier_use(self, seed, uses, t, k):
        keyed = KeyedUniforms(seed)
        gen = keyed.at(0)
        for kind, arg in uses:
            if kind == "random":
                gen.random(arg)
            elif kind == "int32":
                gen.integers(0, 2**31, size=arg, dtype=np.int32)
            else:
                gen = keyed.at(arg)
        assert draw(keyed.at(t), k) == draw(fresh_generator(seed, t), k)

    def test_seed_sequence_and_int_give_one_key(self):
        a = KeyedUniforms(7).at(3).random(5)
        b = KeyedUniforms(np.random.SeedSequence(7)).at(3).random(5)
        assert a.tobytes() == b.tobytes()

    def test_distinct_words_and_seeds_give_distinct_draws(self):
        keyed = KeyedUniforms(1)
        draws = {keyed.at(t).random(4).tobytes() for t in range(1, 50)}
        draws |= {KeyedUniforms(seed).at(1).random(4).tobytes() for seed in range(2, 50)}
        assert len(draws) == 49 + 48
