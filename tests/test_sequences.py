import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acmmd.sequences import Alphabet, encode_sequences

from conftest import brute_hamming_padded


class TestAlphabet:
    def test_terminal_excluded_from_sequence_symbols(self):
        ab = Alphabet(("A", "B", "STOP"), terminal="STOP")
        assert ab.sequence_symbols == ("A", "B")

    def test_no_terminal(self):
        ab = Alphabet(("x", "y"))
        assert ab.sequence_symbols == ("x", "y")

    def test_validate_rejects_terminal_inside_sequence(self):
        ab = Alphabet(("A", "B", "STOP"), terminal="STOP")
        with pytest.raises(ValueError, match="terminal"):
            ab.validate(("A", "STOP"))

    def test_validate_rejects_foreign_symbol(self):
        ab = Alphabet(("A", "B"))
        with pytest.raises(ValueError, match="not in alphabet"):
            ab.validate(("A", "C"))

    @pytest.mark.parametrize("tokens,message", [
        (("A", "STOP", "C"), "terminal symbol 'STOP' inside a sequence"),
        (("A", "C", "STOP"), "token 'C' not in alphabet"),
    ])
    def test_validate_names_first_bad_token(self, tokens, message):
        ab = Alphabet(("A", "B", "STOP"), terminal="STOP")
        with pytest.raises(ValueError) as err:
            ab.validate(tokens)
        assert str(err.value) == message

    def test_validate_accepts_empty(self):
        Alphabet(("A",)).validate(())

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Alphabet(("A", "A"))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_terminal_must_be_member(self):
        with pytest.raises(ValueError, match="not an alphabet symbol"):
            Alphabet(("A",), terminal="Z")


def loop_encode(seqs):
    """The row-by-row fill that one masked assignment replaced."""
    seqs = [tuple(s) for s in seqs]
    symbols = sorted({tok for s in seqs for tok in s})
    code_of = {tok: i for i, tok in enumerate(symbols)}
    width = max(map(len, seqs), default=0)
    codes = np.full((len(seqs), width), len(symbols), dtype=np.uint16)
    for i, s in enumerate(seqs):
        if s:
            codes[i, :len(s)] = [code_of[t] for t in s]
    return codes


class TestEncodeSequences:
    def test_pad_code_is_symbol_count(self):
        codes, lengths = encode_sequences([("A", "B"), ("B",)])
        assert codes.tolist() == [[0, 1], [1, 2]]
        assert lengths.tolist() == [2, 1]

    def test_all_empty(self):
        codes, lengths = encode_sequences([(), ()])
        assert codes.shape == (2, 0)
        assert lengths.tolist() == [0, 0]

    def test_no_sequences(self):
        codes, lengths = encode_sequences([])
        assert codes.shape == (0, 0)
        assert len(lengths) == 0

    @given(st.lists(st.lists(st.sampled_from("ABC"), max_size=6).map(tuple),
                    min_size=2, max_size=6))
    def test_row_mismatches_equal_padded_hamming(self, seqs):
        codes, _ = encode_sequences(seqs)
        for i in range(len(seqs)):
            for j in range(len(seqs)):
                direct = int(np.sum(codes[i] != codes[j]))
                assert direct == brute_hamming_padded(seqs[i], seqs[j])

    @given(st.lists(st.lists(st.sampled_from(["A", "B", "s07", "s10", "x"]),
                             max_size=8), max_size=12))
    @example([])
    @example([[]])
    @settings(max_examples=200, deadline=None)
    def test_equals_row_loop(self, seqs):
        codes, lengths = encode_sequences(seqs)
        want = loop_encode(seqs)
        assert codes.dtype == want.dtype
        assert np.array_equal(codes, want)
        assert lengths.tolist() == [len(s) for s in seqs]
