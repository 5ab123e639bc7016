"""JSONL record files and JSON report output.

A dataset is one record per line. Lines starting with '#' are comments; a
comment of the form `# alphabet=A,B,STOP terminal=STOP` before the first
record declares the token alphabet, which then validates every sequence in
the file. Records are objects whose fields are items; an item is an object
carrying any of `tokens` (list of strings), `scalar` (number), `embedding`
(flat number list), or `per_position` (list of equal-length number lists).

Triplet records need `x`, `y`, and `y_model`. Reliability records need
`y`, `y_model`, and `model_samples` (a list of at least 2 items); `x` is
optional. Either kind may carry a string `group`.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DataError
from .records import Item, ReliabilityRecord, Triplet
from .sequences import Alphabet

_ITEM_FIELDS = ("tokens", "scalar", "embedding", "per_position")


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
    unknown = set(obj) - set(_ITEM_FIELDS)
    if unknown:
        raise DataError(f"{where}: unknown item fields {sorted(unknown)}")
    for key, value in obj.items():
        expected, valid = _ITEM_TYPES[key]
        if value is not None and not valid(value):
            raise DataError(f"{where}: {key} must be {expected}")
    try:
        return Item(**obj)
    except (ValueError, TypeError) as exc:
        raise DataError(f"{where}: {exc}") from exc


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
    """Yield (line_number, parsed object) records; collect the alphabet.

    The alphabet declaration must come before the first record, so that it
    validates every record.
    """
    alphabet: list[Alphabet | None] = [None]

    def gen():
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read dataset {path}: {exc}") from exc
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
                        if alphabet[0] is not None:
                            raise DataError(f"{where}: duplicate alphabet declaration")
                        if seen_record:
                            raise DataError(
                                f"{where}: alphabet declared after the first record")
                        alphabet[0] = parsed
                    continue
                seen_record = True
                try:
                    obj = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc
                if not isinstance(obj, dict):
                    raise DataError(f"{where}: record must be an object")
                yield lineno, obj

    return gen(), alphabet


def _check_tokens(item: Item, alphabet: Alphabet | None, where: str) -> None:
    if alphabet is None or item.tokens is None:
        return
    try:
        alphabet.validate(item.tokens)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from exc


def _group_of(obj: dict, where: str) -> str | None:
    group = obj.get("group")
    if group is not None and not isinstance(group, str):
        raise DataError(f"{where}: group must be a string")
    return group


def load_triplets(path) -> tuple[list[Triplet], Alphabet | None]:
    """Read (x, y, y_model) records from a JSONL file.

    Returns:
        (records, declared alphabet or None).

    Raises:
        DataError: unreadable file, malformed line, or no records at all;
            messages carry path:line locations.
    """
    records: list[Triplet] = []
    gen, alphabet_box = _iter_records(path)
    for lineno, obj in gen:
        where = f"{path}:{lineno}"
        for key in ("x", "y", "y_model"):
            if key not in obj:
                raise DataError(f"{where}: missing field {key!r}")
        extra = set(obj) - {"x", "y", "y_model", "group"}
        if extra:
            raise DataError(f"{where}: unknown fields {sorted(extra)}")
        triplet = Triplet(
            x=item_from_json(obj["x"], f"{where} (x)"),
            y=item_from_json(obj["y"], f"{where} (y)"),
            y_model=item_from_json(obj["y_model"], f"{where} (y_model)"),
            group=_group_of(obj, where))
        alphabet = alphabet_box[0]
        for name in ("x", "y", "y_model"):
            _check_tokens(getattr(triplet, name), alphabet, f"{where} ({name})")
        records.append(triplet)
    if not records:
        raise DataError(f"{path}: empty dataset")
    return records, alphabet_box[0]


def load_reliability_records(path) -> tuple[list[ReliabilityRecord], Alphabet | None]:
    """Read reliability records (y, y_model, model_samples[, x]) from JSONL."""
    records: list[ReliabilityRecord] = []
    gen, alphabet_box = _iter_records(path)
    for lineno, obj in gen:
        where = f"{path}:{lineno}"
        for key in ("y", "y_model", "model_samples"):
            if key not in obj:
                raise DataError(f"{where}: missing field {key!r}")
        extra = set(obj) - {"x", "y", "y_model", "model_samples", "group"}
        if extra:
            raise DataError(f"{where}: unknown fields {sorted(extra)}")
        samples_json = obj["model_samples"]
        if not isinstance(samples_json, list):
            raise DataError(f"{where}: model_samples must be a list")
        samples = tuple(
            item_from_json(s, f"{where} (model_samples[{i}])")
            for i, s in enumerate(samples_json))
        try:
            record = ReliabilityRecord(
                y=item_from_json(obj["y"], f"{where} (y)"),
                y_model=item_from_json(obj["y_model"], f"{where} (y_model)"),
                model_samples=samples,
                x=item_from_json(obj["x"], f"{where} (x)") if "x" in obj else None,
                group=_group_of(obj, where))
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
        alphabet = alphabet_box[0]
        _check_tokens(record.y, alphabet, f"{where} (y)")
        _check_tokens(record.y_model, alphabet, f"{where} (y_model)")
        for i, s in enumerate(record.model_samples):
            _check_tokens(s, alphabet, f"{where} (model_samples[{i}])")
        records.append(record)
    if not records:
        raise DataError(f"{path}: empty dataset")
    return records, alphabet_box[0]


def _alphabet_comment(alphabet: Alphabet) -> str:
    line = "# alphabet=" + ",".join(alphabet.symbols)
    if alphabet.terminal is not None:
        line += f" terminal={alphabet.terminal}"
    return line


def write_triplets(path, triplets, alphabet: Alphabet | None = None) -> None:
    """Write (x, y, y_model) records as JSONL with deterministic key order."""
    with open(path, "w", encoding="utf-8") as fh:
        if alphabet is not None:
            fh.write(_alphabet_comment(alphabet) + "\n")
        for t in triplets:
            obj = {"x": item_to_json(t.x), "y": item_to_json(t.y),
                   "y_model": item_to_json(t.y_model)}
            if t.group is not None:
                obj["group"] = t.group
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_reliability_records(path, records,
                              alphabet: Alphabet | None = None) -> None:
    """Write reliability records as JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        if alphabet is not None:
            fh.write(_alphabet_comment(alphabet) + "\n")
        for r in records:
            obj = {"y": item_to_json(r.y), "y_model": item_to_json(r.y_model),
                   "model_samples": [item_to_json(s) for s in r.model_samples]}
            if r.x is not None:
                obj["x"] = item_to_json(r.x)
            if r.group is not None:
                obj["group"] = r.group
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_report(path, report: dict) -> None:
    """Write a report dict as stable, human-readable JSON."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
