"""Value types for machine-checkable answers.

Every decision the package emits travels with a certificate that a checker
can re-verify without repeating the original search: an orientation (to be
checked acyclic and shortcut-free, or transitively closed), a representing
word, or a vertex set inducing a subgraph with no representation. Edge
covers bundle one orientation certificate per part, and the orientation's
host is the part: a spanning subgraph of the covered graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import InputError
from .graphs import Graph, Orientation

SEMI_TRANSITIVE = "semi-transitive-orientation"
TRANSITIVE = "transitive-orientation"
WORD = "word"
WITNESS = "non-representable-witness"
NON_COMPARABILITY = "non-comparability-witness"

_KINDS = (SEMI_TRANSITIVE, TRANSITIVE, WORD, WITNESS, NON_COMPARABILITY)


@dataclass(frozen=True)
class Certificate:
    """A single verifiable claim about a graph.

    kind            payload
    ----            -------
    semi-transitive-orientation   Orientation of the claimed graph
    transitive-orientation        Orientation of the claimed graph
    word                          tuple of vertex ids representing it
    non-representable-witness     tuple of vertex ids inducing a non-
                                  representable subgraph of the host
    non-comparability-witness     tuple of vertex ids inducing a subgraph
                                  with no transitive orientation
    """

    kind: str
    payload: Union[Orientation, tuple]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InputError(f"unknown certificate kind {self.kind!r}")
        if self.kind in (SEMI_TRANSITIVE, TRANSITIVE):
            if not isinstance(self.payload, Orientation):
                raise InputError(f"{self.kind} payload must be an Orientation")
        elif not isinstance(self.payload, tuple):
            raise InputError(f"{self.kind} payload must be a tuple of vertex ids")


@dataclass(frozen=True)
class Decomposition:
    """A cover of a host graph's edges by word-representable parts.

    Each part is an orientation certificate whose host is the part's
    spanning subgraph, so its edges are that host's edges. Parts may
    overlap. lower_bound (with its optional inducing witness) is
    the best certified lower bound on how many parts any cover needs.
    """

    host: Graph
    parts: tuple[Certificate, ...]
    provenance: str
    lower_bound: int = 1
    lower_bound_witness: Optional[tuple[int, ...]] = None

    @property
    def value(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class MuResult:
    """Outcome of an exact cover-number search.

    status is "exact" (all smaller part counts exhausted) or "upper-bound"
    (some smaller count was cut off by the budget). Parts are orientation
    certificates, as in `Decomposition`.
    """

    value: int
    parts: tuple[Certificate, ...]
    status: str = "exact"

    def __post_init__(self) -> None:
        if self.status not in ("exact", "upper-bound"):
            raise InputError(f"unknown status {self.status!r}")

    @property
    def exact(self) -> bool:
        return self.status == "exact"
