"""Solver outcomes.

Contains carries a verified certificate.  NotContained is only ever produced
by exact steps (size check, exhaustive search).  NotFound is a miss: no
witness was seen, and nothing is proved.  From `solve` it is a budget miss:
`rounds` and `failure_exponent` are 0, the note reads `BudgetExceeded`
once per component that ran out, and no bound is claimed.  The paper
library (`treefit.paper`) fills `rounds` with the colour-coding trials it
ran and `failure_exponent` with the one requested; there the miss bound
2**-failure_exponent holds only when `rounds` equals the trial count for
the guest, and a `BudgetExceeded` note claims no bound.
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
