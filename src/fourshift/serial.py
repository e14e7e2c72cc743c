"""Text and JSON formats: configuration lines of `@offset:digits` runs,
tuple files with `#` comments, and JSON word files for instruction
sequences, one instruction per line."""

from __future__ import annotations

import json

from .core import (Config, DomainError, ParseError, TupleK, emit_runs, quoted,
                   validate_tuple)
from .generators import OPS, Instruction, TransportWord


def emit_config(x: Config) -> str:
    return emit_runs(x.cells)


def parse_config(text: str) -> Config:
    if not isinstance(text, str):
        raise ParseError(f"a configuration line is text, not {quoted(text)}")
    return Config.from_runs(text.strip())


def emit_tuple(t: TupleK) -> str:
    return "".join(emit_config(c) + "\n" for c in t)


def parse_tuple(text: str) -> TupleK:
    if not isinstance(text, str):
        raise ParseError(f"a tuple file is text, not {quoted(text)}")
    configs = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            configs.append(Config.from_runs(line))
    if not configs:
        raise ParseError("no configurations in tuple file")
    return validate_tuple(tuple(configs))


# -- word files ------------------------------------------------------------


def _instruction_from_obj(obj) -> Instruction:
    try:
        cls = OPS.get(obj["op"])
        if cls is None:
            raise ParseError(f"unknown op {quoted(obj)}")
        return cls.from_obj(obj)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise ParseError(f"bad instruction object: {exc}") from exc


def emit_word(word: TransportWord) -> str:
    """A JSON array holding one instruction object per line, encoded by
    one `json.dumps` and broken at each `}, {` between two objects: no
    instruction object holds a dict or writes a brace in a string."""
    if not word.steps:
        return "[\n]"
    text = json.dumps([ins.to_obj() for ins in word.steps])
    return "[\n" + text[1:-1].replace("}, {", "},\n{") + "\n]"


def parse_word(text: str) -> TransportWord:
    try:
        data = json.loads(text)
    # RecursionError: nesting beyond the stack; TypeError: no str or bytes
    except (ValueError, RecursionError, TypeError) as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError("word file must be a JSON array")
    return TransportWord(tuple([_instruction_from_obj(o) for o in data]))
