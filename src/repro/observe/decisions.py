"""Structured log of Algorithm 1's grouping decisions.

The greedy grouping heuristic makes one opaque choice per candidate:
merge a group into its single child, or keep them apart.  Each visit is
recorded as a :class:`MergeDecision` — who, the measured relative
overlap, the threshold it was compared against, and the verdict with its
reason — so ``CompiledPipeline.explain()`` can replay the whole search
instead of only showing its outcome.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MergeDecision:
    """One evaluated merge candidate of Algorithm 1."""

    #: restart round of the greedy loop (1-based)
    round: int
    #: name of the group considered for merging (producer side)
    group: str
    #: name of its single child group (consumer side)
    child: str
    #: size estimate of the producer group (candidate ordering key)
    group_size: int
    #: measured relative overlap, when the candidate got that far
    overlap: float | None
    #: Algorithm 1's redundant-computation bound
    threshold: float
    accepted: bool
    reason: str
    #: the verifier-style diagnostic that would have fired had the merge
    #: been forced (set on rejections caused by illegal dependences)
    diagnostic: str | None = None
    #: True when a scheduling hint influenced this verdict (a forced or
    #: forbidden merge) — ``explain()`` tags these ``[hint]`` so
    #: hint-driven decisions are distinguishable from automatic ones
    hinted: bool = False

    def render(self) -> str:
        verdict = "merge" if self.accepted else "keep "
        cost = (f"overlap {self.overlap:.3f}" if self.overlap is not None
                else "overlap n/a")
        tag = " [hint]" if self.hinted else ""
        line = (f"round {self.round}: {verdict} {self.group} -> "
                f"{self.child} [{cost}, threshold {self.threshold:.2f}] "
                f"({self.reason}){tag}")
        if self.diagnostic:
            line += f"\n    would fire: {self.diagnostic}"
        return line

    def to_dict(self) -> dict:
        return {"round": self.round, "group": self.group,
                "child": self.child, "group_size": self.group_size,
                "overlap": self.overlap, "threshold": self.threshold,
                "accepted": self.accepted, "reason": self.reason,
                "diagnostic": self.diagnostic, "hinted": self.hinted}


class DecisionLog:
    """Accumulates :class:`MergeDecision`s during one grouping run.

    Rejections are de-duplicated on (group, child, reason): the greedy
    loop restarts after every merge, so an unchanged candidate would
    otherwise be re-reported each round with no new information.
    """

    def __init__(self):
        self.decisions: list[MergeDecision] = []
        self._seen: set[tuple[str, str, str]] = set()

    def record(self, decision: MergeDecision) -> None:
        key = (decision.group, decision.child, decision.reason)
        if not decision.accepted and key in self._seen:
            return
        self._seen.add(key)
        self.decisions.append(decision)

    @property
    def merges(self) -> list[MergeDecision]:
        return [d for d in self.decisions if d.accepted]

    @property
    def rejections(self) -> list[MergeDecision]:
        return [d for d in self.decisions if not d.accepted]

    def render(self) -> str:
        if not self.decisions:
            return "(no merge candidates were evaluated)"
        return "\n".join(d.render() for d in self.decisions)
