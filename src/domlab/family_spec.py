"""Colon-separated family spec mini-grammar shared by the CLI and reports.

Examples: "cycle:7", "kpartite:2,2,2", "prism:cycle:6", "complement:path:9",
"kjoin:cycle:4:complete:2:k=1".
"""

from __future__ import annotations

from .graphs import (Graph, complement, complementary_prism, complete,
                     complete_bipartite, complete_multipartite, corona_k1,
                     cycle, k_join, path)


class FamilySpecError(ValueError):
    """Raised with the offending token on parse failure."""


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FamilySpecError(f"expected an integer, got {token!r}") from None


def _int_list(token: str) -> list[int]:
    try:
        return [int(t) for t in token.split(",")]
    except ValueError:
        raise FamilySpecError(
            f"expected comma-separated integers, got {token!r}") from None


def _parse(tokens: list[str], pos: int) -> tuple[Graph, int]:
    if pos >= len(tokens):
        raise FamilySpecError("unexpected end of family spec")
    head = tokens[pos]
    if head == "complete":
        return complete(_int(tokens[pos + 1])), pos + 2
    if head == "cycle":
        return cycle(_int(tokens[pos + 1])), pos + 2
    if head == "path":
        return path(_int(tokens[pos + 1])), pos + 2
    if head == "bipartite":
        sizes = _int_list(tokens[pos + 1])
        if len(sizes) != 2:
            raise FamilySpecError(f"bipartite needs two sizes, got {tokens[pos + 1]!r}")
        return complete_bipartite(*sizes), pos + 2
    if head == "kpartite":
        return complete_multipartite(_int_list(tokens[pos + 1])), pos + 2
    if head == "complement":
        inner, nxt = _parse(tokens, pos + 1)
        return complement(inner), nxt
    if head == "prism":
        inner, nxt = _parse(tokens, pos + 1)
        return complementary_prism(inner), nxt
    if head == "corona":
        inner, nxt = _parse(tokens, pos + 1)
        return corona_k1(inner), nxt
    if head == "kjoin":
        f, nxt = _parse(tokens, pos + 1)
        h, nxt = _parse(tokens, nxt)
        if nxt >= len(tokens) or not tokens[nxt].startswith("k="):
            raise FamilySpecError("kjoin needs a trailing k=<int> token")
        k = _int(tokens[nxt][2:])
        return k_join(f, h, k), nxt + 1
    raise FamilySpecError(f"unknown family {head!r}")


def family_graph(spec: str) -> Graph:
    """Build the graph a family spec names; FamilySpecError names the bad token."""
    tokens = spec.strip().split(":")
    try:
        g, nxt = _parse(tokens, 0)
    except IndexError:
        raise FamilySpecError(f"truncated family spec {spec!r}") from None
    except ValueError as exc:
        if isinstance(exc, FamilySpecError):
            raise
        raise FamilySpecError(f"invalid family spec {spec!r}: {exc}") from None
    if nxt != len(tokens):
        raise FamilySpecError(f"trailing tokens in family spec: "
                              f"{':'.join(tokens[nxt:])!r}")
    return g
