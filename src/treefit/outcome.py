"""Solver outcomes.

Contains carries a verified certificate.  NotContained is only ever produced
by exact steps (size check, exhaustive search).  NotFound is the
probabilistic miss: the randomized engines saw no witness within their
round budget, so the instance is a NO up to the stated failure probability
2**-failure_exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover
    from .embedding import PartialEmbedding


@dataclass(frozen=True)
class Contains:
    embedding: "PartialEmbedding"
    branch: str = ""


@dataclass(frozen=True)
class NotContained:
    reason: str = ""


@dataclass(frozen=True)
class NotFound:
    rounds: int = 0
    seed: int | None = None
    failure_exponent: int = 0
    note: str = ""


SolveOutcome = Union[Contains, NotContained, NotFound]
