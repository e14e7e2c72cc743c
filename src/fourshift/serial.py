"""Text and JSON formats: `@offset:digits` configuration lines, tuple
files with `#` comments, and JSON word files for instruction sequences."""

from __future__ import annotations

import json
import re

from .core import (ZERO, Config, DomainError, ParseError, TupleK,
                   validate_tuple)
from .generators import OPS, Instruction, TransportWord


_CONFIG_RE = re.compile(r"@(-?\d+):([0-3]+)$")


def emit_config(x: Config) -> str:
    if x.is_zero():
        return "ZERO"
    offset, digits = x.word()
    return f"@{offset}:{digits}"


def parse_config(text: str) -> Config:
    text = text.strip()
    if text == "ZERO":
        return ZERO
    m = _CONFIG_RE.match(text)
    if m is None:
        raise ParseError(f"not a configuration: {text!r}")
    try:
        offset = int(m.group(1))
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"offset too long: {exc}") from exc
    return Config.from_word(offset, m.group(2))


def emit_tuple(t: TupleK) -> str:
    return "".join(emit_config(c) + "\n" for c in t)


def parse_tuple(text: str) -> TupleK:
    configs = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            configs.append(parse_config(line))
    if not configs:
        raise ParseError("no configurations in tuple file")
    return validate_tuple(tuple(configs))


# -- word files ------------------------------------------------------------


def _instruction_from_obj(obj) -> Instruction:
    try:
        cls = OPS.get(obj["op"])
        if cls is None:
            raise ParseError(f"unknown op {obj!r}")
        return cls.from_obj(obj)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise ParseError(f"bad instruction object: {exc}") from exc


def emit_word(word: TransportWord) -> str:
    return json.dumps([ins.to_obj() for ins in word.steps], indent=1)


def parse_word(text: str) -> TransportWord:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # nesting beyond the stack
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError("word file must be a JSON array")
    return TransportWord(tuple(_instruction_from_obj(o) for o in data))
