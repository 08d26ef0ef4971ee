"""Finite dependence models: a relational structure plus an explicit team.

Elements are opaque string tokens.  Assignments are value tuples aligned
with the type's variable order, so a team is simply a tuple of rows, kept
in file order.  All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping

from . import fo
from .syntax import FiniteType, FormulaError


class ModelError(Exception):
    """Raised for malformed model files or invalid model constructions."""


Assignment = tuple[str, ...]

DEFAULT_MAX_TEAM = 10**6


@dataclass(frozen=True)
class Structure:
    """A finite relational structure over string element tokens."""

    universe: tuple[str, ...]
    relations: dict[str, frozenset[tuple[str, ...]]]

    def __post_init__(self):
        if len(set(self.universe)) != len(self.universe):
            raise ModelError("duplicate universe element")
        elems = set(self.universe)
        for name, tuples in self.relations.items():
            for row in tuples:
                for e in row:
                    if e not in elems:
                        raise ModelError(
                            f"relation {name} mentions unknown element {e!r}"
                        )

    def holds(self, rel: str, args: tuple[str, ...]) -> bool:
        return args in self.relations.get(rel, frozenset())


@dataclass(frozen=True)
class DependenceModel:
    """A structure together with a nonempty team of assignments."""

    ftype: FiniteType
    structure: Structure
    team: tuple[Assignment, ...]
    #: the position of each row in the team
    _rows: dict[Assignment, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.ftype.variables)
        if not self.team:
            raise ModelError("team must be nonempty")
        rows = {row: i for i, row in enumerate(self.team)}
        if len(rows) != len(self.team):
            raise ModelError("duplicate team row")
        object.__setattr__(self, "_rows", rows)
        elems = set(self.structure.universe)
        for row in self.team:
            if len(row) != n:
                raise ModelError(
                    f"team row {row} has {len(row)} values, expected {n}"
                )
            for e in row:
                if e not in elems:
                    raise ModelError(f"team row mentions unknown element {e!r}")
        for name, ar in self.ftype.relations:
            for row in self.structure.relations.get(name, frozenset()):
                if len(row) != ar:
                    raise ModelError(
                        f"relation {name} row {row} has arity {len(row)}, expected {ar}"
                    )

    def row_index(self, s: Assignment) -> int:
        try:
            return self._rows[s]
        except KeyError:
            raise ModelError(f"assignment {s} outside team") from None

    def values(self, s: Assignment, xs: Iterable[str]) -> tuple[str, ...]:
        return tuple(s[self.ftype.index(x)] for x in xs)

    def agree(self, s: Assignment, t: Assignment, xs: Iterable[str]) -> bool:
        return all(s[i] == t[i] for i in map(self.ftype.index, xs))


@dataclass(frozen=True)
class PointedModel:
    model: DependenceModel
    at: Assignment

    def __post_init__(self):
        self.model.row_index(self.at)  # raises ModelError outside the team


# ---------------------------------------------------------------------------
# .dm loader


def load_model(text: str, require_team: bool = True) -> DependenceModel | tuple:
    """Parse the line-oriented .dm model format.

    With ``require_team=False`` (used when the team comes from a separate
    first-order definition) the team block may be absent and the result is
    the pair (structure, type).
    """
    universe: tuple[str, ...] | None = None
    variables: tuple[str, ...] | None = None
    relations: list[tuple[str, int]] = []
    interps: dict[str, frozenset[tuple[str, ...]]] = {}
    team: list[Assignment] | None = None

    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    i = 0

    def block_rows(start: int, width: int, what: str) -> tuple[list[tuple[str, ...]], int]:
        rows = []
        j = start
        while j < len(lines) and lines[j] != "end":
            toks = lines[j].split()
            if len(toks) != width:
                raise ModelError(
                    f"{what} row {lines[j]!r} has {len(toks)} tokens, expected {width}"
                )
            rows.append(tuple(toks))
            j += 1
        if j >= len(lines):
            raise ModelError(f"missing 'end' for {what} block")
        return rows, j + 1

    while i < len(lines):
        toks = lines[i].split()
        head = toks[0]
        if head == "universe":
            universe = tuple(toks[1:])
            if not universe:
                raise ModelError("empty universe")
            i += 1
        elif head == "vars":
            variables = tuple(toks[1:])
            i += 1
        elif head == "rel":
            if len(toks) != 3:
                raise ModelError(f"bad rel header {lines[i]!r}")
            name = toks[1]
            try:
                arity = int(toks[2])
            except ValueError:
                raise ModelError(f"bad arity in {lines[i]!r}") from None
            relations.append((name, arity))
            rows, i = block_rows(i + 1, arity, f"rel {name}")
            interps[name] = frozenset(rows)
        elif head == "team":
            if variables is None:
                raise ModelError("team block before vars declaration")
            rows, i = block_rows(i + 1, len(variables), "team")
            team = rows
        else:
            raise ModelError(f"unknown directive {head!r}")

    if universe is None:
        raise ModelError("missing universe declaration")
    if variables is None:
        raise ModelError("missing vars declaration")
    try:
        ftype = FiniteType(tuple(relations), variables)
    except FormulaError as e:
        raise ModelError(str(e)) from None
    structure = Structure(universe, interps)
    if team is None:
        if require_team:
            raise ModelError("missing team block")
        return structure, ftype
    if not team:
        raise ModelError("team must be nonempty")
    return DependenceModel(ftype, structure, tuple(team))


def dump_model(model: DependenceModel) -> str:
    """Inverse of load_model, up to comments and whitespace."""
    out = [f"universe {' '.join(model.structure.universe)}"]
    out.append(f"vars {' '.join(model.ftype.variables)}")
    for name, ar in model.ftype.relations:
        out.append(f"rel {name} {ar}")
        for row in sorted(model.structure.relations.get(name, frozenset())):
            out.append(" ".join(row))
        out.append("end")
    out.append("team")
    for row in model.team:
        out.append(" ".join(row))
    out.append("end")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# transformations


def full_team(
    structure: Structure, ftype: FiniteType, max_team: int = DEFAULT_MAX_TEAM
) -> DependenceModel:
    """The model whose team is the whole assignment space."""
    if not structure.universe:
        raise ModelError("empty universe")
    size = len(structure.universe) ** len(ftype.variables)
    if size > max_team:
        raise ModelError(f"full team would have {size} rows, cap is {max_team}")
    team = tuple(product(structure.universe, repeat=len(ftype.variables)))
    return DependenceModel(ftype, structure, team)


def variable_distinguished(
    model: DependenceModel,
) -> tuple[DependenceModel, dict[Assignment, Assignment]]:
    """Tag every value with the variable holding it, making value columns
    pairwise disjoint while preserving all relational facts on the team.

    Returns the new model and the bijection from old to new rows.
    """
    ftype = model.ftype
    vs = ftype.variables
    universe = tuple(f"({e},{x})" for e in model.structure.universe for x in vs)
    relations: dict[str, frozenset[tuple[str, ...]]] = {}
    for name, ar in ftype.relations:
        rows = set()
        for base in model.structure.relations.get(name, frozenset()):
            for tags in product(vs, repeat=ar):
                rows.add(tuple(f"({e},{x})" for e, x in zip(base, tags)))
        relations[name] = frozenset(rows)
    structure = Structure(universe, relations)
    mapping = {
        row: tuple(f"({e},{x})" for e, x in zip(row, vs)) for row in model.team
    }
    team = tuple(mapping[row] for row in model.team)
    return DependenceModel(ftype, structure, team), mapping


def disjoint_union(a: DependenceModel, b: DependenceModel) -> DependenceModel:
    """Tagged disjoint union of structures; the team is the union of the
    tagged teams.  No relation tuple mixes sides."""
    if a.ftype != b.ftype:
        raise ModelError("disjoint union requires identical types")
    universe = tuple(f"L:{e}" for e in a.structure.universe) + tuple(
        f"R:{e}" for e in b.structure.universe
    )
    relations: dict[str, frozenset[tuple[str, ...]]] = {}
    for name, _ in a.ftype.relations:
        left = {
            tuple(f"L:{e}" for e in row)
            for row in a.structure.relations.get(name, frozenset())
        }
        right = {
            tuple(f"R:{e}" for e in row)
            for row in b.structure.relations.get(name, frozenset())
        }
        relations[name] = frozenset(left | right)
    team = tuple(tuple(f"L:{e}" for e in row) for row in a.team) + tuple(
        tuple(f"R:{e}" for e in row) for row in b.team
    )
    return DependenceModel(a.ftype, Structure(universe, relations), team)


def expand(model: DependenceModel) -> Structure:
    """The structure over the vocabulary extended by the team predicate
    ``fo.TEAM``."""
    if model.ftype.has_relation(fo.TEAM):
        raise ModelError(f"vocabulary already contains {fo.TEAM!r}")
    relations = dict(model.structure.relations)
    relations[fo.TEAM] = frozenset(model.team)
    return Structure(model.structure.universe, relations)


@dataclass(frozen=True)
class MaterializedTeam:
    model: DependenceModel
    free_var_bound: int


def materialize_fo_team(
    structure: Structure,
    ftype: FiniteType,
    team_formula: "fo.FOFormula",
    max_team: int = DEFAULT_MAX_TEAM,
) -> MaterializedTeam:
    """Turn a first-order team definition into an explicit team by
    enumerating the assignment space through the Tarski evaluator.

    Also reports the maximal number of free variables over subformulas of
    the defining formula (the bound relevant to the bounded-width model
    checking variant).
    """
    size = len(structure.universe) ** len(ftype.variables)
    if size > max_team:
        raise ModelError(f"assignment space has {size} rows, cap is {max_team}")
    free = fo.free_variables(team_formula)
    extra = free - set(ftype.variables)
    if extra:
        raise ModelError(f"team formula has unexpected free variables {sorted(extra)}")
    unknown = fo.constants(team_formula) - set(structure.universe)
    if unknown:
        raise ModelError(f"team formula mentions unknown element {min(unknown)!r}")
    team = []
    for row in product(structure.universe, repeat=len(ftype.variables)):
        env = dict(zip(ftype.variables, row))
        if fo.eval_fo(team_formula, structure, env):
            team.append(row)
    if not team:
        raise ModelError("team formula defines an empty team")
    bound = fo.max_free_vars(team_formula)
    return MaterializedTeam(DependenceModel(ftype, structure, tuple(team)), bound)
