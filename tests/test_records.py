import numpy as np
import pytest

from acmmd.records import Item, ReliabilityRecord, Triplet, tokens_of


class TestItem:
    def test_needs_one_representation(self):
        with pytest.raises(ValueError, match="at least one"):
            Item()

    def test_tokens_normalized_to_string_tuple(self):
        # Only the container is normalized; tokens are never coerced.
        assert Item(tokens=["A", "B"]).tokens == ("A", "B")

        class Symbol(str):
            pass

        assert Item(tokens=[Symbol("A")]).tokens == ("A",)
        with pytest.raises(ValueError, match="strings"):
            Item(tokens=["A", 1])
        with pytest.raises(ValueError, match="not a string"):
            Item(tokens="AB")

    def test_scalar_coerced_to_float(self):
        item = Item(scalar=np.float32(2.0))
        assert isinstance(item.scalar, float)
        assert item.scalar == 2.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Item(scalar=float("inf"))
        with pytest.raises(ValueError):
            Item(embedding=[1.0, float("nan")])
        with pytest.raises(ValueError):
            Item(per_position=[[1.0], [float("-inf")]])

    def test_array_shapes_enforced(self):
        with pytest.raises(ValueError):
            Item(embedding=[[1.0, 2.0]])
        with pytest.raises(ValueError):
            Item(per_position=[1.0, 2.0])

    def test_equality_covers_arrays(self):
        a = Item(embedding=[1.0, 2.0])
        b = Item(embedding=np.array([1.0, 2.0]))
        c = Item(embedding=[1.0, 3.0])
        assert a == b
        assert a != c
        assert a != Item(scalar=1.0)
        assert (a == 5) is False


class TestTokensOf:
    def test_reads_tokens(self):
        assert tokens_of(Item(tokens=("A", "B"))) == ("A", "B")

    def test_passes_through_raw_sequences(self):
        assert tokens_of(("A",)) == ("A",)
        assert tokens_of(["A", "B"]) == ("A", "B")

    def test_missing_tokens_rejected(self):
        with pytest.raises(ValueError, match="token representation"):
            tokens_of(Item(scalar=1.0))


class TestRecords:
    def test_triplet_holds_items(self):
        t = Triplet(x=Item(scalar=0.5), y=Item(tokens=()),
                    y_model=Item(tokens=("A",)))
        assert t.group is None

    def test_reliability_needs_two_samples(self):
        with pytest.raises(ValueError, match="2"):
            ReliabilityRecord(y=Item(tokens=()), y_model=Item(tokens=()),
                              model_samples=[()])

    def test_reliability_samples_stored_as_tuple(self):
        rec = ReliabilityRecord(
            y=Item(tokens=()), y_model=Item(tokens=()),
            model_samples=[[], ["A"]])
        assert rec.model_samples == ((), ("A",))
        assert rec.x is None
