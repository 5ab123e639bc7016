import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acmmd.errors import DataError
from acmmd.io import (item_from_json, item_to_json, load_reliability_records,
                      load_triplets, write_reliability_records, write_report,
                      write_triplets)
from acmmd.records import Item, ReliabilityRecord, Triplet
from acmmd.sequences import Alphabet
from acmmd.toy import TOY_ALPHABET, ToyConfig, generate_reliability_records, \
    generate_triplets


class TestItemJson:
    def test_round_trip_all_fields(self):
        item = Item(tokens=("A", "B"), scalar=1.5, embedding=[1.0, 2.0],
                    per_position=[[1.0], [2.0]])
        assert item_from_json(item_to_json(item), "here") == item

    def test_round_trip_sparse(self):
        item = Item(scalar=0.25)
        assert item_to_json(item) == {"scalar": 0.25}
        assert item_from_json({"scalar": 0.25}, "here") == item

    def test_unknown_field_rejected(self):
        with pytest.raises(DataError, match="here.*unknown item fields.*bogus"):
            item_from_json({"bogus": 1}, "here")

    def test_non_object_rejected(self):
        with pytest.raises(DataError, match="must be an object"):
            item_from_json([1, 2], "here")

    def test_empty_item_rejected(self):
        with pytest.raises(DataError, match="here"):
            item_from_json({}, "here")

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="finite"):
            item_from_json({"scalar": float("nan")}, "here")


class TestTripletsRoundTrip:
    def test_write_then_load(self, tmp_path):
        config = ToyConfig(delta_p=0.2)
        records = generate_triplets(config, 12, seed=1)
        path = tmp_path / "data.jsonl"
        write_triplets(path, records, alphabet=TOY_ALPHABET)
        loaded, alphabet = load_triplets(path)
        assert loaded == records
        assert alphabet == TOY_ALPHABET

    def test_alphabet_comment_format(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_triplets(path, generate_triplets(ToyConfig(), 2, seed=0),
                       alphabet=TOY_ALPHABET)
        first = path.read_text().splitlines()[0]
        assert first == "# alphabet=A,B,STOP terminal=STOP"

    def test_no_alphabet_loads_as_none(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_triplets(path, generate_triplets(ToyConfig(), 2, seed=0))
        _, alphabet = load_triplets(path)
        assert alphabet is None

    def test_group_field_round_trips(self, tmp_path):
        t = Triplet(x=Item(scalar=1.0), y=Item(tokens=("A",)),
                    y_model=Item(tokens=()), group="left")
        path = tmp_path / "data.jsonl"
        write_triplets(path, [t])
        loaded, _ = load_triplets(path)
        assert loaded[0].group == "left"

    def test_lines_are_stable_json(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_triplets(path, generate_triplets(ToyConfig(), 3, seed=2))
        for line in path.read_text().splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True)


class TestTripletErrors:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read dataset"):
            load_triplets(tmp_path / "nope.jsonl")

    def test_empty_dataset(self, tmp_path):
        path = self.write_lines(tmp_path, ["# just a comment"])
        with pytest.raises(DataError, match="empty dataset"):
            load_triplets(path)

    def test_invalid_json_carries_line_number(self, tmp_path):
        good = json.dumps({"x": {"scalar": 1.0}, "y": {"tokens": []},
                           "y_model": {"tokens": []}})
        path = self.write_lines(tmp_path, [good, "{not json"])
        with pytest.raises(DataError, match=r"bad\.jsonl:2: invalid JSON"):
            load_triplets(path)

    def test_missing_field(self, tmp_path):
        path = self.write_lines(
            tmp_path, [json.dumps({"x": {"scalar": 1.0}, "y": {"tokens": []}})])
        with pytest.raises(DataError, match="missing field 'y_model'"):
            load_triplets(path)

    def test_unknown_field(self, tmp_path):
        obj = {"x": {"scalar": 1.0}, "y": {"tokens": []},
               "y_model": {"tokens": []}, "weird": 1}
        path = self.write_lines(tmp_path, [json.dumps(obj)])
        with pytest.raises(DataError, match="unknown fields.*weird"):
            load_triplets(path)

    @pytest.mark.parametrize("x", [{"scalar": 10 ** 400},
                                   {"embedding": [1.0, 10 ** 400]}])
    def test_number_too_large_for_a_float(self, tmp_path, x):
        obj = {"x": x, "y": {"tokens": []}, "y_model": {"tokens": []}}
        path = self.write_lines(tmp_path, [json.dumps(obj)])
        with pytest.raises(DataError, match=r"bad\.jsonl:1 \(x\): .*too large"):
            load_triplets(path)

    def test_non_object_record(self, tmp_path):
        path = self.write_lines(tmp_path, ["[1, 2, 3]"])
        with pytest.raises(DataError, match="record must be an object"):
            load_triplets(path)

    def test_duplicate_alphabet(self, tmp_path):
        path = self.write_lines(tmp_path, ["# alphabet=A,B", "# alphabet=A,B"])
        with pytest.raises(DataError, match="duplicate alphabet"):
            load_triplets(path)

    def test_bad_alphabet_attribute(self, tmp_path):
        path = self.write_lines(tmp_path, ["# alphabet=A,B bogus=1"])
        with pytest.raises(DataError, match="unknown alphabet attribute"):
            load_triplets(path)

    def test_tokens_outside_alphabet(self, tmp_path):
        obj = {"x": {"scalar": 1.0}, "y": {"tokens": ["Z"]},
               "y_model": {"tokens": []}}
        path = self.write_lines(tmp_path,
                                ["# alphabet=A,B", json.dumps(obj)])
        with pytest.raises(DataError, match=r"bad\.jsonl:2 \(y\)"):
            load_triplets(path)

    def test_alphabet_after_first_record(self, tmp_path):
        # The record before the declaration would go unvalidated.
        obj = {"x": {"scalar": 1.0}, "y": {"tokens": ["Z"]},
               "y_model": {"tokens": []}}
        path = self.write_lines(tmp_path,
                                [json.dumps(obj), "# alphabet=A,B"])
        with pytest.raises(DataError,
                           match=r"bad\.jsonl:2: alphabet declared after"):
            load_triplets(path)

    def test_group_must_be_string(self, tmp_path):
        obj = {"x": {"scalar": 1.0}, "y": {"tokens": []},
               "y_model": {"tokens": []}, "group": 7}
        path = self.write_lines(tmp_path, [json.dumps(obj)])
        with pytest.raises(DataError, match="group must be a string"):
            load_triplets(path)

    @pytest.mark.parametrize("item,message", [
        ({"tokens": "AB"}, "tokens must be a list of strings"),
        ({"tokens": [1, 2]}, "tokens must be a list of strings"),
        ({"scalar": True}, "scalar must be a number"),
    ])
    def test_item_values_not_coerced(self, tmp_path, item, message):
        good = {"x": {"scalar": 1.0}, "y": {"tokens": []},
                "y_model": {"tokens": []}}
        path = self.write_lines(tmp_path,
                                [json.dumps(good), json.dumps({**good, "y": item})])
        with pytest.raises(DataError, match=rf"bad\.jsonl:2 \(y\): {message}"):
            load_triplets(path)


class TestReliabilityIo:
    def test_write_then_load(self, tmp_path):
        config = ToyConfig(delta_p=0.1)
        records = generate_reliability_records(config, 5, 4, seed=2)
        path = tmp_path / "rel.jsonl"
        write_reliability_records(path, records, alphabet=TOY_ALPHABET)
        loaded, alphabet = load_reliability_records(path)
        assert loaded == records
        assert alphabet == TOY_ALPHABET

    def test_optional_x_round_trips(self, tmp_path):
        rec = ReliabilityRecord(
            y=Item(tokens=("A",)), y_model=Item(tokens=("B",)),
            model_samples=[(), ("A",)])
        path = tmp_path / "rel.jsonl"
        write_reliability_records(path, [rec])
        loaded, _ = load_reliability_records(path)
        assert loaded[0].x is None
        assert loaded[0] == rec

    def test_too_few_samples(self, tmp_path):
        obj = {"y": {"tokens": []}, "y_model": {"tokens": []},
               "model_samples": [{"tokens": []}]}
        path = tmp_path / "rel.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(DataError, match="rel\\.jsonl:1"):
            load_reliability_records(path)

    def test_samples_must_be_list(self, tmp_path):
        obj = {"y": {"tokens": []}, "y_model": {"tokens": []},
               "model_samples": {"tokens": []}}
        path = tmp_path / "rel.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(DataError, match="model_samples must be a list"):
            load_reliability_records(path)

    def test_missing_samples_field(self, tmp_path):
        obj = {"y": {"tokens": []}, "y_model": {"tokens": []}}
        path = tmp_path / "rel.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(DataError, match="missing field 'model_samples'"):
            load_reliability_records(path)

    def test_x_tokens_validated(self, tmp_path):
        obj = {"x": {"tokens": ["Z"]}, "y": {"tokens": []},
               "y_model": {"tokens": []},
               "model_samples": [{"tokens": []}, {"tokens": ["A"]}]}
        path = tmp_path / "rel.jsonl"
        path.write_text("# alphabet=A,B\n" + json.dumps(obj) + "\n")
        with pytest.raises(DataError, match=r"rel\.jsonl:2 \(x\)"):
            load_reliability_records(path)

    def test_sample_tokens_validated_with_index(self, tmp_path):
        obj = {"y": {"tokens": []}, "y_model": {"tokens": []},
               "model_samples": [{"tokens": []}, {"tokens": ["Z"]}]}
        path = tmp_path / "rel.jsonl"
        path.write_text("# alphabet=A,B\n" + json.dumps(obj) + "\n")
        with pytest.raises(DataError, match=r"model_samples\[1\]"):
            load_reliability_records(path)

    @pytest.mark.parametrize("tokens,message", [
        (["A", "STOP", "Z"], "terminal symbol 'STOP' inside a sequence"),
        (["A", "Z", "STOP"], "token 'Z' not in alphabet"),
    ])
    def test_sample_error_names_first_bad_token(self, tmp_path, tokens,
                                                message):
        obj = {"y": {"tokens": []}, "y_model": {"tokens": []},
               "model_samples": [{"tokens": ["B"]}, {"tokens": tokens}]}
        path = tmp_path / "rel.jsonl"
        path.write_text("# alphabet=A,B,STOP terminal=STOP\n"
                        + json.dumps(obj) + "\n")
        with pytest.raises(DataError) as err:
            load_reliability_records(path)
        assert str(err.value) == f"{path}:2 (model_samples[1]): {message}"

    @pytest.mark.parametrize("sample", [
        ["A"],                                   # not an object
        {},                                      # no tokens
        {"tokens": None},
        {"tokens": ["A"], "scalar": 1.0},        # a field no kernel reads
        {"tokens": ["A"], "embedding": [1.0]},
        {"tokens": ["A", 1]},                    # non-string token
        {"tokens": "AB"},                        # a string, not a list
    ])
    def test_malformed_sample_rejected_with_index(self, tmp_path, sample):
        obj = {"y": {"tokens": []}, "y_model": {"tokens": []},
               "model_samples": [{"tokens": []}, sample]}
        path = tmp_path / "rel.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(DataError,
                           match=r"rel\.jsonl:1 \(model_samples\[1\]\)"):
            load_reliability_records(path)


class TestRepeatedSamples:
    """Each distinct model sample is checked once per file; repeats share
    its tuple and every bad sample keeps its located message."""

    GOOD = {"tokens": ["A", "B"]}
    SHAPE = ' (model_samples[2]): a model sample must be {"tokens": [strings]} ' \
        "with no other field"

    @staticmethod
    def write(path, header, *sample_lists):
        path.write_text(header + "".join(
            json.dumps({"y": {"tokens": []}, "y_model": {"tokens": []},
                        "model_samples": samples}) + "\n"
            for samples in sample_lists))
        return path

    def test_repeats_load_equal_and_shared(self, tmp_path):
        records = [
            ReliabilityRecord(y=Item(tokens=()), y_model=Item(tokens=("A",)),
                              model_samples=[("A", "B"), ("B",), ("A", "B")]),
            ReliabilityRecord(y=Item(tokens=("B",)), y_model=Item(tokens=()),
                              model_samples=[("B",), ("A", "B"), ()]),
        ]
        path = tmp_path / "rel.jsonl"
        write_reliability_records(path, records, Alphabet(("A", "B")))
        loaded, _ = load_reliability_records(path)
        assert loaded == records
        first, second = loaded[0].model_samples, loaded[1].model_samples
        assert first[0] is first[2] is second[1]
        assert first[1] is second[0]

    @pytest.mark.parametrize("bad,message", [
        ({"tokens": ["A", "B"], "scalar": 1.0}, SHAPE),
        ({"tokens": ["A", 1]}, SHAPE),
        ({"tokens": [["A"], "B"]}, SHAPE),
        ({"tokens": "AB"}, SHAPE),
        ({"tokens": ["A", "Z"]}, " (model_samples[2]): token 'Z' not in alphabet"),
        ({"tokens": ["A", "STOP"]},
         " (model_samples[2]): terminal symbol 'STOP' inside a sequence"),
        (["A", "B"], SHAPE),
        (None, ": reliability records need at least 2 model samples"),
    ], ids=["extra-key", "non-string-token", "nested-list", "string-tokens",
            "foreign-token", "terminal", "non-object", "one-sample"])
    def test_bad_sample_after_good_duplicate(self, tmp_path, bad, message):
        path = self.write(
            tmp_path / "rel.jsonl", "# alphabet=A,B,STOP terminal=STOP\n",
            [self.GOOD, self.GOOD],
            [self.GOOD] if bad is None else [self.GOOD, self.GOOD, bad])
        with pytest.raises(DataError) as err:
            load_reliability_records(path)
        assert str(err.value) == f"{path}:3{message}"

    def test_loads_do_not_share_checks(self, tmp_path):
        samples = [{"tokens": ["B"]}, {"tokens": ["A"]}]
        wide = self.write(tmp_path / "wide.jsonl", "# alphabet=A,B\n", samples)
        narrow = self.write(tmp_path / "narrow.jsonl", "# alphabet=B\n",
                            samples)
        load_reliability_records(wide)
        with pytest.raises(DataError) as err:
            load_reliability_records(narrow)
        assert str(err.value) == (
            f"{narrow}:2 (model_samples[1]): token 'A' not in alphabet")


class TestWriteReport:
    def test_stable_formatting(self, tmp_path):
        path = tmp_path / "out" / "report.json"
        write_report(path, {"b": 1, "a": [1.5, None]})
        text = path.read_text()
        assert text == json.dumps({"a": [1.5, None], "b": 1},
                                  sort_keys=True, indent=2) + "\n"

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "report.json"
        write_report(path, {"ok": True})
        assert json.loads(path.read_text()) == {"ok": True}


_TOKEN_POOL = ("A", "B", "C", "STOP", "tok")
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def alphabets(draw):
    """No header, or an alphabet over part of the pool, with or without a
    terminal."""
    if draw(st.booleans()):
        return None
    symbols = tuple(draw(st.lists(st.sampled_from(_TOKEN_POOL), min_size=1,
                                  unique=True)))
    return Alphabet(symbols=symbols,
                    terminal=draw(st.none() | st.sampled_from(symbols)))


def token_tuples(pool):
    """Token tuples over `pool`; only () when the pool is empty (an
    alphabet that holds nothing but its terminal)."""
    if not pool:
        return st.just(())
    return st.lists(st.sampled_from(pool), max_size=4).map(tuple)


@st.composite
def items(draw, pool):
    """An Item carrying a nonempty subset of the four representations."""
    kinds = draw(st.sets(st.sampled_from(
        ["tokens", "scalar", "embedding", "per_position"]), min_size=1))
    fields = {}
    if "tokens" in kinds:
        fields["tokens"] = draw(token_tuples(pool))
    if "scalar" in kinds:
        fields["scalar"] = draw(_finite)
    if "embedding" in kinds:
        fields["embedding"] = draw(st.lists(_finite, max_size=3))
    if "per_position" in kinds:
        dim = draw(st.integers(0, 2))
        fields["per_position"] = draw(st.lists(
            st.lists(_finite, min_size=dim, max_size=dim), min_size=1,
            max_size=3))
    return Item(**fields)


@st.composite
def datasets(draw):
    alphabet = draw(alphabets())
    pool = alphabet.sequence_symbols if alphabet else _TOKEN_POOL
    item = items(pool)
    group = st.none() | st.text(max_size=4)
    triplets = draw(st.lists(st.builds(
        Triplet, x=item, y=item, y_model=item, group=group),
        min_size=1, max_size=3))
    reliability = draw(st.lists(st.builds(
        ReliabilityRecord, y=item, y_model=item,
        model_samples=st.lists(token_tuples(pool), min_size=2, max_size=3),
        x=st.none() | item, group=group), min_size=1, max_size=3))
    return alphabet, triplets, reliability


class TestJsonlRoundTrip:
    @given(datasets())
    @settings(max_examples=60, deadline=None)
    def test_writers_and_loaders_round_trip(self, data):
        alphabet, triplets, reliability = data
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "triplets.jsonl"
            write_triplets(path, triplets, alphabet=alphabet)
            assert load_triplets(path) == (triplets, alphabet)
            path = Path(tmp) / "reliability.jsonl"
            write_reliability_records(path, reliability, alphabet=alphabet)
            assert load_reliability_records(path) == (reliability, alphabet)
