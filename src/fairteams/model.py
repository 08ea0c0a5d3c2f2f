"""Domain types for skill-based team assembly over a candidate pool."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping

SkillId = str
"""Opaque token naming one skill; compared by exact equality."""

OBJECTIVE_NAMES = ("cost", "workload", "expertise", "representation", "cost_difference")


class AttributeClass(Enum):
    """Binary protected-attribute class; every candidate carries exactly one."""

    ZERO = 0
    ONE = 1

    def other(self) -> AttributeClass:
        return AttributeClass.ONE if self is AttributeClass.ZERO else AttributeClass.ZERO


@dataclass(frozen=True)
class Candidate:
    """A hireable individual: id, protected-attribute class and a cost profile.

    The cost profile maps each possessed skill to its hiring cost. A skill is
    possessed iff it has an entry, and every stored cost must be strictly
    positive; absence encodes "skill not possessed". The profile is normalized
    to sorted-key order so that iteration is deterministic.
    """

    id: str
    attribute: AttributeClass
    cost_profile: Mapping[SkillId, float]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("candidate id must be non-empty")
        if not isinstance(self.attribute, AttributeClass):
            raise ValueError(f"candidate {self.id!r}: attribute must be an AttributeClass")
        if not self.cost_profile:
            raise ValueError(f"candidate {self.id!r}: cost profile needs at least one skill")
        normalized: dict[str, float] = {}
        for skill in sorted(self.cost_profile):
            if not skill:
                raise ValueError(f"candidate {self.id!r}: skill tokens must be non-empty")
            cost = float(self.cost_profile[skill])
            if not math.isfinite(cost) or cost <= 0.0:
                raise ValueError(
                    f"candidate {self.id!r}: cost for skill {skill!r} must be a finite positive number"
                )
            normalized[skill] = cost
        object.__setattr__(self, "cost_profile", normalized)


@dataclass(frozen=True)
class Project:
    """A project: id plus the non-empty set of skills it requires."""

    id: str
    requirements: frozenset[SkillId]
    sorted_requirements: tuple[SkillId, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("project id must be non-empty")
        requirements = frozenset(self.requirements)
        if not requirements:
            raise ValueError(f"project {self.id!r}: requirement set must be non-empty")
        if any(not skill for skill in requirements):
            raise ValueError(f"project {self.id!r}: skill tokens must be non-empty")
        object.__setattr__(self, "requirements", requirements)
        object.__setattr__(self, "sorted_requirements", tuple(sorted(requirements)))


@dataclass(frozen=True)
class Team:
    """A duplicate-free group of candidates, kept sorted by candidate id.

    Size constraints are contextual: the multi-objective assembler only emits
    teams of its configured size (at least 3), while the greedy baselines stop
    at coverage and may produce smaller teams.
    """

    members: tuple[Candidate, ...]

    def __init__(self, members: Iterable[Candidate]) -> None:
        ordered = sorted(members, key=lambda c: c.id)
        if not ordered:
            raise ValueError("a team needs at least one member")
        seen: set[str] = set()
        for member in ordered:
            if member.id in seen:
                raise ValueError(f"duplicate team member {member.id!r}")
            seen.add(member.id)
        object.__setattr__(self, "members", tuple(ordered))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self.members)

    def member_ids(self) -> tuple[str, ...]:
        return tuple(member.id for member in self.members)


@dataclass(frozen=True)
class ObjectiveVector:
    """The five minimized objectives of a formed team, in canonical order."""

    cost: float
    workload: float
    expertise: float
    representation: float
    cost_difference: float

    def __post_init__(self) -> None:
        for name in OBJECTIVE_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"objective {name} must be finite and non-negative, got {value!r}")
        if self.representation > 1.0:
            raise ValueError(f"representation must lie in [0, 1], got {self.representation!r}")
        if self.cost_difference > 1.0:
            raise ValueError(f"cost_difference must lie in [0, 1], got {self.cost_difference!r}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.cost, self.workload, self.expertise, self.representation, self.cost_difference)


def coverage(team: Team, project: Project) -> int:
    """Number of project requirements possessed by at least one team member."""
    team_skills: set[str] = set()
    for member in team.members:
        team_skills.update(member.cost_profile)
    return len(project.requirements & team_skills)
