"""Case classification of a mixture instance at its quantile.

Each component CDF is sorted into one of four behaviors at s_p:

    1  continuous at s_p, strictly rising from the left
    2  continuous at s_p, flat on some interval left of s_p
    3  discontinuous at s_p, no flat stretch left of s_p
    4  discontinuous at s_p, flat on some interval left of s_p

(the F behavior is numbered 1-4, the G behavior lettered a-d), giving a
sixteen-cell case table.  Flatness is always judged against the left limit:
F is flat left of s_p when some z < s_p has F(z) = F(s_p-).  Fifteen cells
are feasible; (2b) cannot occur, since F_S would be continuous at s_p and
flat to its left.  Five cells -- (1d), (3d), (4a), (4c), (4d) -- split into
sub-cases on whether the mixture CDF's left limit at s_p falls short of p or
hits it exactly, and (4d) has only the first: some z < s_p has both CDFs
constant on [z, s_p), so F_S(s_p-) = F_S(z) < p.  That leaves nineteen
cell/sub-case labels; computing any other signals an internal contradiction.

Every cell asserts a small set of exact relations tying alpha*, beta*, and
s_p to the component CDFs and inverses; ``verify_cell_relations`` evaluates
them exactly for piecewise pairs and otherwise with ``distributions.close``/``leq``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .distributions import DomainError, ExtendedReal, RealLike, close, leq
from .mixture import MixtureSpec, _checked_level, mixture_cdf_left_limit
from .split import QuantileSolution, split_quantile

__all__ = [
    "SUBCASE_LT",
    "SUBCASE_EQ",
    "BRANCHING_CELLS",
    "InternalContradictionError",
    "CaseLabel",
    "RelationCheck",
    "ClassificationReport",
    "classify",
    "verify_cell_relations",
]

SUBCASE_LT = "F_S(sp-)<p"
SUBCASE_EQ = "F_S(sp-)=p"


class InternalContradictionError(RuntimeError):
    """A computed classification landed in a provably impossible cell."""


@dataclass(frozen=True, slots=True)
class CaseLabel:
    """Cell of the case table: F behavior 1-4, G behavior a-d, optional sub-case."""

    f_case: int
    g_case: str
    subcase: str | None = None

    @property
    def cell(self) -> str:
        return f"{self.f_case}{self.g_case}"

    @property
    def cell_id(self) -> str:
        return self.cell if self.subcase is None else f"{self.cell}/{self.subcase}"

    def transposed(self) -> "CaseLabel":
        """The label after swapping the component roles (1<->a, ..., 4<->d)."""
        return CaseLabel("abcd".index(self.g_case) + 1, "abcd"[self.f_case - 1], self.subcase)


@dataclass(frozen=True, slots=True)
class RelationCheck:
    """One asserted cell relation and whether it held."""

    relation: str
    holds: bool


@dataclass(slots=True)
class ClassificationReport:
    """Cell label plus the evidence behind it."""

    label: CaseLabel
    s_p: ExtendedReal
    f_flat_witness: ExtendedReal | None
    g_flat_witness: ExtendedReal | None
    relations_checked: list[RelationCheck] = field(default_factory=list)

    @property
    def relations_ok(self) -> bool:
        return all(check.holds for check in self.relations_checked)

    def to_dict(self) -> dict:
        return {
            "cell": self.label.cell_id,
            "s_p": str(self.s_p),
            "f_flat_witness": None if self.f_flat_witness is None else str(self.f_flat_witness),
            "g_flat_witness": None if self.g_flat_witness is None else str(self.g_flat_witness),
            "relations": [[c.relation, c.holds] for c in self.relations_checked],
        }


def _behavior_case(d, s_p) -> tuple[int, ExtendedReal | None]:
    """1-4 from (continuity at s_p, flatness left of s_p), plus the witness."""
    continuous = d.is_continuous_at(s_p)
    flat, witness = d.flat_left_of(s_p)
    if continuous:
        return (2 if flat else 1), witness
    return (4 if flat else 3), witness


def classify(
    m: MixtureSpec, p: RealLike, solution: QuantileSolution | None = None
) -> ClassificationReport:
    """Classify the instance at its quantile and verify the cell's relations.

    Parameters
    ----------
    m, p:
        The mixture and the level, with 0 < q < 1 and 0 < p < 1.
    solution:
        An already-computed ``split_quantile(m, p)`` to reuse; computed fresh
        when omitted.

    Raises
    ------
    InternalContradictionError
        If the computed label is none of the nineteen feasible ones -- cell
        (2b) or (4d) with F_S(s_p-) = p -- or the mixture CDF's left limit
        exceeds p (all impossible for a correct quantile).
    """
    p = _checked_level(m, p)
    if m.lone is not None:
        raise DomainError(f"classification needs 0 < q < 1, got q = {m.q}")
    if m.x.is_exact != m.y.is_exact:
        raise DomainError("classification needs both components piecewise or both parametric")
    if solution is None:
        solution = split_quantile(m, p)

    s_p = solution.s_p
    f_case, f_witness = _behavior_case(m.x, s_p)
    g_index, g_witness = _behavior_case(m.y, s_p)
    g_case = "abcd"[g_index - 1]

    subcase = None
    if (f_case, g_case) in BRANCHING_CELLS:
        left_limit = mixture_cdf_left_limit(m, s_p)
        if not leq(left_limit, p, m.is_exact):
            raise InternalContradictionError(
                f"mixture CDF left limit {left_limit} exceeds p={p} at s_p={s_p}"
            )
        subcase = SUBCASE_EQ if close(left_limit, p, m.is_exact) else SUBCASE_LT

    report = ClassificationReport(
        label=CaseLabel(f_case, g_case, subcase),
        s_p=s_p,
        f_flat_witness=f_witness,
        g_flat_witness=g_witness,
    )
    report.relations_checked = verify_cell_relations(report, solution, m, p)
    return report


# The relations each feasible label asserts; the rows are the case table.
# Tokens are side (x: alpha*, F, Qx; y: beta*, G, Qy) then relation: xF/yG
# mean the split level equals the CDF at s_p, = means s_p equals the side's
# inverse at its split level, > means s_p strictly exceeds it.
#
# x@ and y@ are conditional: when both components jump at s_p and one of
# them is flat on the left, that side's split level can land exactly on the
# bottom of its own jump, where its inverse falls below s_p (the level no
# longer clears the jump).  The side attains s_p precisely when its level
# sits strictly above the jump bottom, so the asserted relation switches
# between = and > on that comparison.  In (3d) and (4c) the other side
# carries the quantile either way; in (4d) both sides are flat on the left,
# and since F_S(s_p-) < p at least one level sits above its jump bottom.
_CELL_RELATIONS: dict[tuple, tuple[str, ...]] = {
    (1, "a", None): ("xF", "yG", "x=", "y="),
    (1, "b", None): ("xF", "yG", "x=", "y>"),
    (1, "c", None): ("xF", "x=", "y="),
    (1, "d", SUBCASE_LT): ("xF", "x=", "y="),
    (1, "d", SUBCASE_EQ): ("xF", "x=", "y>"),
    (2, "a", None): ("xF", "yG", "y=", "x>"),
    (2, "c", None): ("xF", "y=", "x>"),
    (2, "d", None): ("xF", "y=", "x>"),
    (3, "a", None): ("yG", "x=", "y="),
    (3, "b", None): ("yG", "x=", "y>"),
    (3, "c", None): ("x=", "y="),
    (3, "d", SUBCASE_LT): ("x=", "y@"),
    (3, "d", SUBCASE_EQ): ("x=", "y>"),
    (4, "a", SUBCASE_LT): ("yG", "y=", "x="),
    (4, "a", SUBCASE_EQ): ("yG", "y=", "x>"),
    (4, "b", None): ("yG", "x=", "y>"),
    (4, "c", SUBCASE_LT): ("y=", "x@"),
    (4, "c", SUBCASE_EQ): ("y=", "x>"),
    (4, "d", SUBCASE_LT): ("x@", "y@"),
}

#: Cells whose asserted relations depend on whether F_S(s_p-) < p or = p.
BRANCHING_CELLS = frozenset((f, g) for f, g, subcase in _CELL_RELATIONS if subcase)


def verify_cell_relations(
    report: ClassificationReport,
    solution: QuantileSolution,
    m: MixtureSpec,
    p: RealLike,
) -> list[RelationCheck]:
    """Evaluate every relation the report's cell asserts.

    Relations are exact for piecewise pairs.  Otherwise equalities hold up to
    ``FLOAT_TOL``, relative beyond magnitude 1 (``close``), and s_p > Q(level)
    needs a gap beyond the absolute ``FLOAT_TOL``.  A label without relations
    is infeasible and raises.
    """
    label = report.label
    relations = _CELL_RELATIONS.get((label.f_case, label.g_case, label.subcase))
    s_p = solution.s_p
    if relations is None:
        raise InternalContradictionError(
            f"computed cell ({label.cell_id}) cannot occur; "
            f"instance q={m.q}, p={p}, s_p={s_p}"
        )
    exact = m.is_exact
    sides = {
        "x": (m.x, solution.alpha_star, "alpha_star", "F", "Qx"),
        "y": (m.y, solution.beta_star, "beta_star", "G", "Qy"),
    }
    checks = []
    for side, relation in relations:
        d, level, name, cdf, inverse = sides[side]
        if relation == cdf:
            text, holds = f"{name} = {cdf}(s_p)", close(level, d.cdf(s_p), exact)
        else:
            note = ""
            if relation == "@":
                above = not leq(level, d.cdf_left_limit(s_p), exact)
                relation = "=" if above else ">"
                note = f" [{name} {'>' if above else '='} {cdf}(s_p-)]"
            bound = d.quantile(level)
            text = f"s_p {relation} {inverse}({name}){note}"
            if relation == "=":
                holds = close(s_p, bound, exact)
            else:  # a strict relation asserts a gap: no relative widening
                holds = not leq(s_p, bound, exact, relative=False)
        checks.append(RelationCheck(text, bool(holds)))
    return checks
