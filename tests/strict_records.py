"""Record files read as strict JSON: json.loads accepts NaN and Infinity,
which JSON does not allow, so a line holding one fails here."""

import json
from pathlib import Path


def _reject(constant: str):
    raise ValueError(f"record line holds {constant}, which is not JSON")


def strict_record_lines(path) -> list[dict]:
    """Every line of a record file, the metadata line first, decoded with
    NaN, Infinity and -Infinity rejected."""
    text = Path(path).read_text(encoding="utf-8")
    return [json.loads(line, parse_constant=_reject) for line in text.splitlines()]
