"""Unit and property tests for repro.util.bitops."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitops import (
    all_configurations,
    bits_to_int,
    canonical_ring_form,
    config_str,
    flip_lanes,
    int_to_bits,
    lane_counts,
    pack_lanes,
    parse_config,
    popcount,
    popcount_array,
    popcount_words,
    reverse_bits,
    reverse_bits_array,
    rotate_bits,
    rotate_bits_array,
    unpack_lanes,
)


class TestBitsToInt:
    def test_empty(self):
        assert bits_to_int([]) == 0

    def test_single_bits(self):
        assert bits_to_int([1]) == 1
        assert bits_to_int([0, 1]) == 2
        assert bits_to_int([0, 0, 1]) == 4

    def test_little_endian_convention(self):
        # Node 0 is bit 0: "110" -> 1 + 2 = 3.
        assert bits_to_int([1, 1, 0]) == 3

    def test_accepts_numpy(self):
        assert bits_to_int(np.array([1, 0, 1], dtype=np.uint8)) == 5


class TestIntToBits:
    def test_roundtrip_small(self):
        for n in range(1, 9):
            for code in range(1 << n):
                assert bits_to_int(int_to_bits(code, n)) == code

    def test_dtype(self):
        assert int_to_bits(3, 4).dtype == np.uint8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_roundtrip_property(self, code):
        assert bits_to_int(int_to_bits(code, 20)) == code


class TestAllConfigurations:
    def test_shape(self):
        mat = all_configurations(5)
        assert mat.shape == (32, 5)

    def test_rows_are_codes(self):
        mat = all_configurations(4)
        for code in range(16):
            assert bits_to_int(mat[code]) == code

    def test_zero_nodes(self):
        mat = all_configurations(0)
        assert mat.shape == (1, 0)

    def test_refuses_huge(self):
        with pytest.raises(ValueError):
            all_configurations(30)


class TestPopcount:
    def test_values(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount((1 << 63) | 1) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            popcount(-3)

    @given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=1,
                    max_size=50))
    def test_vectorized_matches_scalar(self, values):
        arr = np.array(values, dtype=np.uint64)
        expected = [popcount(v) for v in values]
        assert popcount_array(arr).tolist() == expected


class TestRotateBits:
    def test_identity(self):
        assert rotate_bits(0b0110, 4, 0) == 0b0110

    def test_basic_rotation(self):
        # bit i moves to bit i+1 (mod 4)
        assert rotate_bits(0b0001, 4, 1) == 0b0010
        assert rotate_bits(0b1000, 4, 1) == 0b0001

    def test_full_cycle(self):
        assert rotate_bits(0b1011, 4, 4) == 0b1011

    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=16))
    def test_inverse(self, value, shift):
        assert rotate_bits(rotate_bits(value, 8, shift), 8, -shift) == value

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            rotate_bits(16, 4, 1)


class TestReverseBits:
    def test_basic(self):
        assert reverse_bits(0b0011, 4) == 0b1100

    @given(st.integers(min_value=0, max_value=1023))
    def test_involution(self, value):
        assert reverse_bits(reverse_bits(value, 10), 10) == value


#: a spread of ring widths: tiny, byte-straddling, word-edge
_WIDTHS = st.sampled_from([1, 3, 7, 8, 9, 16, 23, 33, 63, 64])


def _codes_for(n, data):
    count = data.draw(st.integers(min_value=1, max_value=32))
    draw_code = st.integers(min_value=0, max_value=(1 << n) - 1)
    return np.array(
        [data.draw(draw_code) for _ in range(count)], dtype=np.uint64
    )


class TestRotateBitsArray:
    def test_matches_scalar(self):
        codes = np.arange(16, dtype=np.uint64)
        got = rotate_bits_array(codes, 4, 1)
        expected = [rotate_bits(int(c), 4, 1) for c in codes]
        assert got.tolist() == expected

    @given(_WIDTHS, st.integers(min_value=-70, max_value=70), st.data())
    def test_property_vs_scalar(self, n, shift, data):
        codes = _codes_for(n, data)
        got = rotate_bits_array(codes, n, shift)
        expected = [rotate_bits(int(c), n, shift) for c in codes]
        assert got.tolist() == expected

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            rotate_bits_array(np.zeros(1, dtype=np.uint64), 0, 1)
        with pytest.raises(ValueError):
            rotate_bits_array(np.zeros(1, dtype=np.uint64), 65, 1)


class TestReverseBitsArray:
    def test_matches_scalar(self):
        codes = np.arange(32, dtype=np.uint64)
        got = reverse_bits_array(codes, 5)
        expected = [reverse_bits(int(c), 5) for c in codes]
        assert got.tolist() == expected

    @given(_WIDTHS, st.data())
    def test_property_vs_scalar(self, n, data):
        codes = _codes_for(n, data)
        got = reverse_bits_array(codes, n)
        expected = [reverse_bits(int(c), n) for c in codes]
        assert got.tolist() == expected

    @given(_WIDTHS, st.data())
    def test_involution(self, n, data):
        codes = _codes_for(n, data)
        np.testing.assert_array_equal(
            reverse_bits_array(reverse_bits_array(codes, n), n), codes
        )


class TestCanonicalRingForm:
    @staticmethod
    def _scalar(code, n, reflections):
        best = min(
            rotate_bits(code, n, s) for s in range(n)
        )
        if reflections:
            refl = reverse_bits(code, n)
            best = min(
                best, min(rotate_bits(refl, n, s) for s in range(n))
            )
        return best

    @given(_WIDTHS.filter(lambda n: n <= 23), st.booleans(), st.data())
    def test_property_vs_scalar(self, n, reflections, data):
        codes = _codes_for(n, data)
        got = canonical_ring_form(codes, n, reflections=reflections)
        expected = [
            self._scalar(int(c), n, reflections) for c in codes
        ]
        assert got.tolist() == expected

    def test_idempotent(self):
        codes = np.arange(1 << 8, dtype=np.uint64)
        canon = canonical_ring_form(codes, 8)
        np.testing.assert_array_equal(canonical_ring_form(canon, 8), canon)

    def test_invariant_under_group_action(self):
        codes = np.arange(1 << 7, dtype=np.uint64)
        canon = canonical_ring_form(codes, 7)
        np.testing.assert_array_equal(
            canonical_ring_form(rotate_bits_array(codes, 7, 3), 7), canon
        )
        np.testing.assert_array_equal(
            canonical_ring_form(reverse_bits_array(codes, 7), 7), canon
        )


def _unpack_column_sums(planes, lanes):
    """Reference per-lane count: unpack every word to bytes, then sum."""
    bits = np.unpackbits(
        np.ascontiguousarray(planes).view(np.uint8), axis=1, bitorder="little"
    )[:, :lanes]
    return bits.sum(axis=0, dtype=np.int64)


class TestLaneCounts:
    # Around the unpacked tail (32 rows), powers of two (all-ones rows at
    # 2**k - 1, 2**k and 2**k + 1 drive the top carry) and odd row counts.
    ROWS = [1, 2, 3, 31, 32, 33, 63, 64, 65, 1000, 1001, 4095, 4096, 4097]

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("nwords", [1, 3, 8])
    @pytest.mark.parametrize("fill", ["random", "ones"])
    def test_matches_unpack_reference(self, rows, nwords, fill):
        if fill == "ones":
            planes = np.full((rows, nwords), np.uint64(0xFFFFFFFFFFFFFFFF))
        else:
            rng = np.random.default_rng([rows, nwords])
            planes = rng.integers(
                0, np.iinfo(np.uint64).max, size=(rows, nwords),
                dtype=np.uint64, endpoint=True,
            )
        lanes = 64 * nwords
        got = lane_counts(planes, lanes)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _unpack_column_sums(planes, lanes))
        if fill == "ones":
            assert (got == rows).all()

    def test_partial_last_word_and_input_untouched(self):
        rng = np.random.default_rng(7)
        planes = rng.integers(0, 1 << 63, size=(100, 2), dtype=np.uint64)
        before = planes.copy()
        got = lane_counts(planes, 100)
        np.testing.assert_array_equal(got, _unpack_column_sums(planes, 100))
        np.testing.assert_array_equal(planes, before)


class TestLanePacking:
    def test_roundtrip(self):
        bools = np.random.default_rng(3).random(256) < 0.5
        words = pack_lanes(bools)
        assert words.dtype == np.uint64 and words.shape == (4,)
        np.testing.assert_array_equal(unpack_lanes(words, 256), bools)
        np.testing.assert_array_equal(unpack_lanes(words, 70), bools[:70])

    def test_lane_j_is_bit_j_mod_64_of_word_j_div_64(self):
        bools = np.zeros(128, dtype=bool)
        bools[[0, 65, 127]] = True
        assert pack_lanes(bools).tolist() == [1, 2 | (1 << 63)]

    def test_pads_to_whole_words(self):
        assert pack_lanes(np.ones(4, dtype=bool)).tolist() == [0b1111]
        assert pack_lanes(np.ones(65, dtype=bool)).tolist() == [2**64 - 1, 1]


def _random_words(shape, seed):
    return np.random.default_rng(seed).integers(
        0, np.iinfo(np.uint64).max, size=shape, dtype=np.uint64, endpoint=True
    )


class TestFlipLanes:
    @pytest.mark.parametrize("nwords", [1, 2, 4, 32])
    def test_moves_lane_x_to_x_xor_2_to_the_i(self, nwords):
        words = _random_words(nwords, nwords)
        lanes = 64 * nwords
        bits = unpack_lanes(words, lanes)
        partner = np.arange(lanes)
        for i in range(lanes.bit_length() - 1):
            got = flip_lanes(words, i)
            np.testing.assert_array_equal(
                unpack_lanes(got, lanes), bits[partner ^ (1 << i)], f"i={i}"
            )
            # a fresh array: the peel flips its live set and ANDs in place
            assert not np.shares_memory(got, words)

    def test_flips_each_row_along_the_last_axis(self):
        words = _random_words((3, 8), 7)
        for i in range(9):
            np.testing.assert_array_equal(
                flip_lanes(words, i), [flip_lanes(row, i) for row in words]
            )


class TestPopcountWords:
    @pytest.mark.parametrize("shape", [1, 5, (3, 4)])
    def test_matches_unpacked_sum(self, shape):
        words = _random_words(shape, 11)
        bits = np.unpackbits(words.view(np.uint8))
        assert popcount_words(words) == int(bits.sum())

    def test_extremes(self):
        assert popcount_words(np.zeros(3, dtype=np.uint64)) == 0
        assert popcount_words(np.full(3, 2**64 - 1, dtype=np.uint64)) == 192


class TestConfigStr:
    def test_rendering(self):
        assert config_str(0b101, 4) == "1010"
        assert config_str(0, 3) == "000"

    def test_roundtrip_with_parse(self):
        for code in range(32):
            s = config_str(code, 5)
            assert bits_to_int(parse_config(s)) == code


class TestParseConfig:
    def test_string(self):
        np.testing.assert_array_equal(parse_config("0110"), [0, 1, 1, 0])

    def test_separators_ignored(self):
        np.testing.assert_array_equal(parse_config("01 10"), [0, 1, 1, 0])

    def test_iterable(self):
        np.testing.assert_array_equal(parse_config([1, 0]), [1, 0])

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_config("01a0")

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            parse_config([0, 2, 1])
