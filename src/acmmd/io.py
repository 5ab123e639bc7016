"""JSONL record files and JSON report output.

A dataset is one record per line. Lines starting with '#' are comments; a
comment of the form `# alphabet=A,B,STOP terminal=STOP` before the first
record declares the token alphabet, which then validates every sequence in
the file. Records are objects whose fields are items; an item is an object
carrying any of `tokens` (list of strings), `scalar` (number), `embedding`
(flat number list), or `per_position` (list of equal-length number lists).

The keys of a record are the fields of its dataclass, and a field without a
default is required: Triplet records need `x`, `y`, and `y_model`.
Reliability records need `y`, `y_model`, and `model_samples`, a list of at
least 2 model samples, each `{"tokens": [...]}` and nothing else; `x` is
optional. Either kind may carry a string `group`. Every model sample
takes the same checks, with its own located message, and equal samples in
one file share one tuple.
"""

from __future__ import annotations

import dataclasses
import errno
import json
from pathlib import Path

from .errors import DataError
from .records import Item, ReliabilityRecord, Triplet
from .sequences import Alphabet, Tokens


def _list_of(value, types) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= types


# Field -> (what it must be, test on its parsed JSON value). Exact types
# keep JSON booleans from passing as numbers.
_ITEM_TYPES = {
    "tokens": ("a list of strings", lambda v: _list_of(v, {str})),
    "scalar": ("a number", lambda v: type(v) in (int, float)),
    "embedding": ("a list of numbers", lambda v: _list_of(v, {int, float})),
    "per_position": ("a list of number lists", lambda v: isinstance(v, list)
                     and all(_list_of(row, {int, float}) for row in v)),
}


def item_from_json(obj, where: str) -> Item:
    """Build an Item from a parsed JSON object, with located errors.

    Values are not coerced: tokens must be strings and numbers numbers.
    """
    if not isinstance(obj, dict):
        raise DataError(f"{where}: item must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _ITEM_TYPES.keys()
    if unknown:
        raise DataError(f"{where}: unknown item fields {sorted(unknown)}")
    for key, value in obj.items():
        expected, valid = _ITEM_TYPES[key]
        if value is not None and not valid(value):
            raise DataError(f"{where}: {key} must be {expected}")
    try:
        return Item(**obj)
    except (ValueError, TypeError, OverflowError) as exc:
        raise DataError(f"{where}: {exc}") from exc


def _sample_from_json(obj, alphabet: Alphabet | None, shared: dict,
                      where: str, index: int) -> Tokens:
    """Token tuple of model sample `index`, which must be {"tokens": [strings]}.

    `shared` maps each sample tuple of this file to itself, so that equal
    samples, once checked, are one tuple.
    """
    if type(obj) is dict and len(obj) == 1 and type(obj.get("tokens")) is list:
        tokens = tuple(obj["tokens"])
        try:
            "".join(tokens)  # every token is a string
            if alphabet is not None:
                alphabet.validate(tokens)
        except TypeError:  # a token that is not a string
            pass
        except ValueError as exc:
            raise DataError(f"{where} (model_samples[{index}]): {exc}") from exc
        else:
            return shared.setdefault(tokens, tokens)
    raise DataError(f"{where} (model_samples[{index}]): a model sample must be "
                    '{"tokens": [strings]} with no other field')


def item_to_json(item: Item) -> dict:
    out: dict = {}
    if item.tokens is not None:
        out["tokens"] = list(item.tokens)
    if item.scalar is not None:
        out["scalar"] = item.scalar
    if item.embedding is not None:
        out["embedding"] = item.embedding.tolist()
    if item.per_position is not None:
        out["per_position"] = item.per_position.tolist()
    return out


def _parse_alphabet_comment(line: str, where: str) -> Alphabet | None:
    body = line.lstrip("#").strip()
    if not body.startswith("alphabet="):
        return None
    terminal = None
    parts = body.split()
    symbols_text = parts[0][len("alphabet="):]
    for extra in parts[1:]:
        if extra.startswith("terminal="):
            terminal = extra[len("terminal="):]
        else:
            raise DataError(f"{where}: unknown alphabet attribute {extra!r}")
    symbols = tuple(s for s in symbols_text.split(",") if s)
    try:
        return Alphabet(symbols=symbols, terminal=terminal)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from exc


def _iter_records(path):
    """Yield (line_number, parsed object, declared alphabet or None) records.

    The alphabet declaration must come before the first record, so that it
    validates every record.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    alphabet = None
    seen_record = False
    with fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                parsed = _parse_alphabet_comment(stripped, where)
                if parsed is not None:
                    if alphabet is not None:
                        raise DataError(f"{where}: duplicate alphabet declaration")
                    if seen_record:
                        raise DataError(
                            f"{where}: alphabet declared after the first record")
                    alphabet = parsed
                continue
            seen_record = True
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{where}: record must be an object")
            yield lineno, obj, alphabet


def _field_from_json(name: str, value, alphabet: Alphabet | None,
                     shared: dict, where: str):
    """Parse record field `name`: the group label, the model samples (see
    `_sample_from_json` for `shared`), or an item whose tokens are checked
    against the alphabet."""
    if name == "group":
        if value is not None and not isinstance(value, str):
            raise DataError(f"{where}: group must be a string")
        return value
    if name == "model_samples":
        if not isinstance(value, list):
            raise DataError(f"{where}: model_samples must be a list")
        return tuple(_sample_from_json(s, alphabet, shared, where, i)
                     for i, s in enumerate(value))
    item = item_from_json(value, f"{where} ({name})")
    try:
        if alphabet is not None and item.tokens is not None:
            alphabet.validate(item.tokens)
    except ValueError as exc:
        raise DataError(f"{where} ({name}): {exc}") from exc
    return item


def _load(path, kind):
    """Records of dataclass `kind` from JSONL, plus the declared alphabet.

    The record's fields are the keys; a field without a default is required.
    """
    fields = dataclasses.fields(kind)
    names = [f.name for f in fields]
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    records = []
    alphabet = None
    shared: dict = {}
    for lineno, obj, alphabet in _iter_records(path):
        where = f"{path}:{lineno}"
        for key in required:
            if key not in obj:
                raise DataError(f"{where}: missing field {key!r}")
        extra = set(obj).difference(names)
        if extra:
            raise DataError(f"{where}: unknown fields {sorted(extra)}")
        values = {name: _field_from_json(name, obj[name], alphabet, shared,
                                         where)
                  for name in names if name in obj}
        try:
            records.append(kind(**values))
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
    if not records:
        raise DataError(f"{path}: empty dataset")
    return records, alphabet


def load_triplets(path) -> tuple[list[Triplet], Alphabet | None]:
    """Read (x, y, y_model) records from a JSONL file.

    Returns:
        (records, declared alphabet or None).

    Raises:
        DataError: unreadable file, malformed line, or no records at all;
            messages carry path:line locations.
    """
    return _load(path, Triplet)


def load_reliability_records(path) -> tuple[list[ReliabilityRecord], Alphabet | None]:
    """Read reliability records (y, y_model, model_samples[, x]) from JSONL."""
    return _load(path, ReliabilityRecord)


def make_parent(path) -> None:
    """Create the missing parent directories of output `path`, if given."""
    if path:
        parent = Path(path).parent
        if parent.exists() and not parent.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, "Not a directory", str(parent))
        parent.mkdir(parents=True, exist_ok=True)


def _write(path, records, alphabet: Alphabet | None) -> None:
    """Write records as JSONL with sorted keys; None fields are left out."""
    make_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        if alphabet is not None:
            line = "# alphabet=" + ",".join(alphabet.symbols)
            if alphabet.terminal is not None:
                line += f" terminal={alphabet.terminal}"
            fh.write(line + "\n")
        for record in records:
            obj = {}
            for name, value in vars(record).items():
                if name == "model_samples":
                    obj[name] = [{"tokens": list(s)} for s in value]
                elif isinstance(value, Item):
                    obj[name] = item_to_json(value)
                elif value is not None:
                    obj[name] = value
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_triplets(path, triplets, alphabet: Alphabet | None = None) -> None:
    """Write (x, y, y_model) records as JSONL with deterministic key order."""
    _write(path, triplets, alphabet)


def write_reliability_records(path, records,
                              alphabet: Alphabet | None = None) -> None:
    """Write reliability records as JSONL."""
    _write(path, records, alphabet)


def write_report(path, report: dict) -> None:
    """Write a report dict as stable, human-readable JSON."""
    make_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
