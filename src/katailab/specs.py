"""Spec families: one table per family (levelsets, functions, equidist), one
Spelling row per JSON tag.  from_json is the only route that builds an
object; parse reads the shorthand name:a,b,c into its row's JSON object first.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from .constants import Constant


def constant(text: str):
    """Reader of a constant field (sqrt2, golden, 1/3, ...): its JSON value."""
    return Constant.parse(text).to_json()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class Spelling(NamedTuple):
    """tag: the JSON tag.  short: the shorthand name, None for JSON only.
    fields: the shorthand's fields in order, name -> reader of the string
    into the field's JSON value; a last reader in a list, [int], reads the
    remaining fields as one list.  build: the constructor, from the JSON
    object.  shape: the read fields to the JSON fields, where the JSON form
    nests them or fixes others."""

    tag: str
    short: str | None
    fields: dict
    build: Callable
    shape: Callable = dict

    @property
    def usage(self) -> str:
        """The shorthand with its field names, e.g. omega_rot:alpha,lo,hi."""
        names = ",".join(key + ("..." if isinstance(read, list) else "")
                         for key, read in self.fields.items())
        return f"{self.short}:{names}" if names else self.short


class Family:
    """The table of one spec family; a JSON object names its row by obj[key]."""

    def __init__(self, name: str, key: str, rows):
        self.name, self.key = name, key
        self.rows = {row.tag: row for row in rows}
        self.shorthand = {row.short: row for row in rows if row.short}

    def from_json(self, obj):
        """The object of obj's row.  An integer field (read by int, or a list
        read by [int]) must hold a JSON integer, not a float or a bool, so
        the object, its name and its to_json agree on the value; a float
        field holds a JSON number, not a string or a bool."""
        tag = obj[self.key]
        if tag not in self.rows:
            raise ValueError(f"unknown {self.name} {tag!r}")
        row = self.rows[tag]
        for key, read in row.fields.items():
            if key not in obj:
                continue  # build names the missing field
            value = obj[key]
            if read is int and not _is_int(value):
                raise ValueError(f"field {key!r} must be an integer, got {value!r}")
            if read is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise ValueError(f"field {key!r} must be a number, got {value!r}")
            if read == [int] and not (isinstance(value, list) and all(map(_is_int, value))):
                raise ValueError(f"field {key!r} must be a list of integers, got {value!r}")
        return row.build(obj)

    def parse(self, text: str):
        """A spec from its JSON form or its shorthand.  A wrong number of
        fields, and any KeyError, IndexError, TypeError or ValueError on either
        route, give one ValueError naming the family and the spelling; so does
        a RecursionError from a JSON spec nested too deeply, on decoding or
        in from_json."""
        text = text.strip()
        try:
            if text.startswith("{"):
                return self.from_json(json.loads(text))
            name, _, args = text.partition(":")
            parts = [a for a in args.split(",") if a]
            if name not in self.shorthand:
                raise ValueError(f"no spelling {name!r}")
            row = self.shorthand[name]
            fixed = [read for read in row.fields.values() if not isinstance(read, list)]
            variadic = len(fixed) < len(row.fields)
            if len(parts) < len(fixed) or (len(parts) > len(fixed) and not variadic):
                raise ValueError(f"expected {row.usage}")
            fields = {key: [read[0](a) for a in parts[i:]] if isinstance(read, list)
                      else read(parts[i]) for i, (key, read) in enumerate(row.fields.items())}
            return self.from_json({self.key: row.tag, **row.shape(fields)})
        except KeyError as err:
            raise ValueError(f"bad {self.name} spec {text!r}: missing field {err}") from err
        except (IndexError, TypeError, ValueError, RecursionError) as err:
            raise ValueError(f"bad {self.name} spec {text!r}: {err}") from err
