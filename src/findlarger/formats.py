"""Text formats for sequences and trees.

Sequence files: whitespace-separated integers after an optional count
header: a first line holding a single integer equal to the number of
tokens after it.  A one-line input never has one, so "2 1 2" is
[2, 1, 2].  The writers always put the count alone on the first line.

Tree files: either a parent array in the same headered layout with -1
marking the root, or a balanced-parenthesis string.
"""

from __future__ import annotations

from typing import Sequence, TextIO

import numpy as np

from .trees import MalformedTreeError, Tree, euler_tour, parse_balanced_parens, parse_parent_array, read_ints

__all__ = [
    "SequenceParseError",
    "read_sequence",
    "write_sequence",
    "read_tree",
    "write_parent_array",
    "write_parens",
    "FORMATS",
]

FORMATS = ("seq", "parent", "parens")


class SequenceParseError(ValueError):
    """Sequence file tokens are missing or not integers."""


def read_sequence(text: str) -> list[int]:
    """Parse integers, dropping the count header when present."""
    return read_ints(text, SequenceParseError)


def write_sequence(values: Sequence[int], out: TextIO) -> None:
    out.write(f"{len(values)}\n")
    out.write(" ".join(map(str, values)))
    out.write("\n")


def read_tree(text: str, fmt: str) -> Tree:
    """Parse a tree in the named format ("parent" or "parens")."""
    if fmt == "parent":
        return parse_parent_array(text)
    if fmt == "parens":
        return parse_balanced_parens(text)
    raise MalformedTreeError(f"unknown tree format {fmt!r}")


def write_parent_array(tree: Tree, out: TextIO) -> None:
    out.write(f"{tree.n_nodes}\n")
    out.write(" ".join(map(str, tree.parent.tolist())))
    out.write("\n")


def write_parens(tree: Tree, out: TextIO) -> None:
    """The tree as nested parentheses, children in ascending order.

    Each step of the Euler tour that goes one deeper opens a node and each
    step back up closes one; the root's own pair encloses them all.
    """
    steps = np.diff(euler_tour(tree).depths)
    inner = np.where(steps > 0, ord("("), ord(")")).astype(np.uint8).tobytes().decode("ascii")
    out.write(f"({inner})\n")
