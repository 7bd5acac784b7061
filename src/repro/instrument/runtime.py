"""Execution runtimes for instrumented programs.

The runtime plays the role of the paper's injected global variable ``r`` plus
the ``pen`` dispatch (Sect. 3.2, Step 1).  Every conditional test of the
instrumented program is rewritten into calls on an installed runtime:

* :meth:`Runtime.test` evaluates the whole test of a single-comparison
  conditional ``a op b`` in one fused probe: it computes the branch distances
  towards both outcomes (Def. 4.1), applies the ``pen`` update, records
  coverage and returns the Boolean outcome so the program's control flow is
  unchanged.
* :meth:`Runtime.cmp` evaluates one arithmetic comparison inside a Boolean
  combination (``a < b and c < d``) and stashes its distances under its leaf
  index for :meth:`Runtime.resolve`, which runs the test's composition
  program over them, hands the composed pair to the installed
  :class:`PenaltyPolicy` (CoverMe's ``pen``) to update ``r``, and records
  branch coverage.
* :meth:`Runtime.tleaf` evaluates a *non-comparison* leaf inside a Boolean
  combination (``_isnan(x) or _isnan(fn)``): the value is promoted to the
  comparison ``value != 0`` (Sect. 5.3) and its distances join the
  composition like any comparison leaf.
* :meth:`Runtime.truth` handles bare non-comparison tests (``if flag:``);
  numeric values are promoted to the comparison ``value != 0`` per Sect. 5.3,
  anything else is recorded for coverage only.

Composition programs
--------------------

Arbitrarily nested Boolean tests (``a or (b and c)``, De-Morganed ``not``,
chained comparisons, ternary tests) are lowered by the AST pass into leaf
probes plus a constant *composition program*: a postfix token tuple executed
by :meth:`Runtime.resolve`.  Tokens are small ints:

* ``token >= 0`` -- push the distance pair stashed for leaf ``token`` (an
  unevaluated or non-numeric leaf pushes "no distance");
* ``token == TREE_NOT`` -- swap the pair on top of the stack (logical
  negation swaps the true/false distances);
* ``token <= -4`` -- reduce the top ``k`` pairs with ``and`` (even tokens,
  ``tree_and(k)``) or ``or`` (odd tokens, ``tree_or(k)``): for ``and`` the
  distance to truth is the sum of the children's (all must hold) and the
  distance to falsity their minimum (falsifying any child suffices); ``or``
  is dual.  Children without a usable distance contribute nothing, which
  matches the information available after short-circuiting.

Both runtimes execute the same token semantics with identical arithmetic
ordering, so composed distances (and therefore ``r``) stay bit-identical
across execution profiles.  :class:`FastRuntime` composes on preallocated
stacks with stamp-validated leaf slots, keeping the coverage harvest
allocation-free.

Execution profiles
------------------

Minimizing the representing function issues millions of executions.  The
optimizer inner loop runs on the compiled tiers selected through
:class:`ExecutionProfile` (``PENALTY_NATIVE``, ``PENALTY_SPECIALIZED``);
the two runtimes of this module serve everything else:

* ``FULL_TRACE`` -- the recording :class:`Runtime`: every conditional
  evaluation is appended to an :class:`ExecutionRecord` as a
  :class:`ConditionalOutcome`, and the penalty is delegated to a pluggable
  :class:`PenaltyPolicy`.  It preserves the *path*, so it is required by
  anything that inspects per-conditional distances or the order of
  conditionals (trace-based tooling, debugging, the line-coverage
  substrate's record consumers), and it is the reference the other tiers
  are checked against.
* :class:`FastRuntime` -- the allocation-free harvest runtime: only the
  final ``r``, a flat covered-branch bitset and the last executed
  conditional are retained (a :class:`CoverageOutcome`).  That is
  everything Algorithm 1's reduction consumes from an accepted minimum.
  It harvests accepted minima under ``PENALTY_SPECIALIZED`` (whose variants
  compute ``r`` only) and the rows a native kernel bails on; a native
  kernel harvests every other row itself.

Both implementations compute bit-identical ``r`` values for the CoverMe
penalty (Def. 4.2): :class:`FastRuntime` inlines that exact policy against a
saturated-branch bitmask instead of calling through a policy object, and it
uses the same :func:`~repro.core.branch_distance.branch_distance` arithmetic
with the fixed Def. 4.1 constant
:data:`~repro.core.branch_distance.DEFAULT_EPSILON`.
The recording runtime stays policy-agnostic: with ``policy=None`` it only
records coverage (this is how the baseline tools and the Gcov substrate use
it); with CoverMe's penalty policy installed it computes the representing
function.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol

from repro.core.branch_distance import DEFAULT_EPSILON, branch_distance, negate_op

_COMPARISON_OPS = {"==", "!=", "<", "<=", ">", ">="}

#: Large constant distance reported when operands carry no usable gradient
#: (NaN comparisons).  Shared with the specializing compiler tier
#: (:mod:`repro.instrument.specialize`) so the baked-in constants stay
#: bit-identical with the runtime-dispatched ones.
BIG_DISTANCE = 1.0e300

#: Composition-program token: logical NOT (swap the distance pair on top).
TREE_NOT = -1


def tree_and(arity: int) -> int:
    """Composition-program token reducing the top ``arity`` pairs with AND."""
    if arity < 2:
        raise ValueError("and/or composition nodes need at least two children")
    return -2 * arity


def tree_or(arity: int) -> int:
    """Composition-program token reducing the top ``arity`` pairs with OR."""
    if arity < 2:
        raise ValueError("and/or composition nodes need at least two children")
    return -2 * arity - 1


class ExecutionProfile(str, enum.Enum):
    """How much information one execution of an instrumented program retains.

    Ordered from cheapest to most expensive; see the module docstring for
    when each profile is sound.

    ``PENALTY_SPECIALIZED`` is the compile-time tier: the saturation mask is
    resolved per probe site by :mod:`repro.instrument.specialize` and the
    program re-compiled, so mid-epoch evaluations pay no per-conditional
    runtime dispatch at all.  A variant computes ``r`` and nothing else
    (both-saturated conditionals have their probes stripped entirely);
    accepted minima are re-executed on :class:`FastRuntime` to harvest
    branches.

    ``PENALTY_NATIVE`` goes below that: the mask-generic lowering is emitted
    as C (:mod:`repro.instrument.native`), compiled with the system ``cc``
    and called through ``ctypes``, with the mask passed at run time.  An
    evaluation returns the same bit-identical ``r``; a harvest is one kernel
    call, because every site records its covered bit and the last
    conditional.  Machines without a C compiler -- or programs with
    non-emittable constructs -- degrade to the specialized tier with a
    one-time warning.  It is the default.

    ``FULL_TRACE`` runs the recording :class:`Runtime` on every evaluation:
    the reference the compiled tiers must match bit for bit.
    """

    PENALTY_NATIVE = "penalty-native"
    PENALTY_SPECIALIZED = "penalty-specialized"
    FULL_TRACE = "full-trace"


#: Config-facing names of the execution profiles, cheapest first.
EXECUTION_PROFILES: tuple[str, ...] = tuple(p.value for p in ExecutionProfile)


def check_execution_profile(name: str) -> None:
    """Raise a ``ValueError`` naming ``name`` and the known profiles unless
    ``name`` is one of :data:`EXECUTION_PROFILES`."""
    if name not in EXECUTION_PROFILES:
        known = ", ".join(EXECUTION_PROFILES)
        raise ValueError(f"unknown eval profile {name!r}; known: {known}")


@dataclass(frozen=True, order=True)
class BranchId:
    """Identifies one branch: conditional label plus outcome (True/False arm)."""

    conditional: int
    outcome: bool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        arm = "T" if self.outcome else "F"
        return f"{self.conditional}{arm}"

    @property
    def sibling(self) -> "BranchId":
        """The other branch of the same conditional."""
        return BranchId(self.conditional, not self.outcome)

    @property
    def bit(self) -> int:
        """Position of this branch in the flat branch bitsets."""
        return branch_bit(self.conditional, self.outcome)


def branch_bit(conditional: int, outcome: bool) -> int:
    """Flat bit index of a branch: ``2 * conditional + outcome``."""
    return (conditional << 1) | (1 if outcome else 0)


def branch_mask(branches: Iterable[BranchId]) -> int:
    """Pack branches into an integer bitmask (bit :func:`branch_bit` set)."""
    mask = 0
    for branch in branches:
        mask |= 1 << branch.bit
    return mask


def branches_from_mask(mask: int) -> frozenset[BranchId]:
    """Unpack an integer bitmask back into a set of branches."""
    branches: set[BranchId] = set()
    bit = 0
    while mask:
        if mask & 1:
            branches.add(BranchId(bit >> 1, bool(bit & 1)))
        mask >>= 1
        bit += 1
    return frozenset(branches)


@dataclass
class ConditionalOutcome:
    """One dynamic evaluation of a conditional statement's test."""

    conditional: int
    outcome: bool
    distance_true: Optional[float]
    distance_false: Optional[float]

    @property
    def branch(self) -> BranchId:
        return BranchId(self.conditional, self.outcome)


@dataclass
class ExecutionRecord:
    """Everything observed while executing the instrumented program once."""

    path: list[ConditionalOutcome] = field(default_factory=list)
    covered: set[BranchId] = field(default_factory=set)

    def register(self, outcome: ConditionalOutcome) -> None:
        self.path.append(outcome)
        self.covered.add(outcome.branch)

    @property
    def last(self) -> Optional[ConditionalOutcome]:
        return self.path[-1] if self.path else None

    def conditionals_executed(self) -> set[int]:
        return {o.conditional for o in self.path}

    def covered_mask(self) -> int:
        """The covered branches as a flat bitmask (see :func:`branch_bit`)."""
        return branch_mask(self.covered)


@dataclass(frozen=True)
class CoverageOutcome:
    """What one :class:`FastRuntime` execution retains.

    A single small object built once per execution (never per conditional):
    the covered-branch set plus the last executed conditional, which is all
    the engine's reduction consumes from an accepted minimum.
    """

    covered: frozenset[BranchId]
    last_conditional: Optional[int]
    last_outcome: Optional[bool]

    def covered_mask(self) -> int:
        return branch_mask(self.covered)


class PenaltyPolicy(Protocol):
    """Interface of the ``pen`` function plugged into the recording runtime."""

    def penalty(
        self,
        conditional: int,
        distance_true: Optional[float],
        distance_false: Optional[float],
        outcome: bool,
        current_r: float,
    ) -> float:
        """Return the new value of the global register ``r``."""
        ...  # pragma: no cover - protocol


class Runtime:
    """The recording (``FULL_TRACE``) runtime: full per-conditional trace.

    Args:
        policy: Penalty policy deciding how ``r`` evolves at each conditional.
            ``None`` means pure coverage recording (``r`` stays at 1).
    """

    def __init__(self, policy: Optional[PenaltyPolicy] = None):
        self.policy = policy
        self._r = 1.0
        self._record: ExecutionRecord = ExecutionRecord()
        self._leaves: dict[int, dict[int, tuple[Optional[float], Optional[float]]]] = {}
        self.total_evaluations = 0

    # -- execution lifecycle -------------------------------------------------

    def begin(self) -> None:
        """Start one execution: reset ``r`` to 1 (Step 2 of the algorithm)."""
        self._r = 1.0
        self._record = ExecutionRecord()
        self._leaves = {}
        self.total_evaluations += 1

    def end(self) -> tuple[float, ExecutionRecord]:
        """Finish one execution, returning the final ``r`` and the record."""
        return self._r, self._record

    @property
    def r(self) -> float:
        """Current value of the injected global register."""
        return self._r

    @property
    def record(self) -> ExecutionRecord:
        return self._record

    # -- probes (called from instrumented code) -------------------------------

    def test(self, conditional: int, op: str, lhs, rhs) -> bool:
        """Fused probe for a single-comparison conditional test.

        Equivalent to ``resolve(c, (0,), cmp(c, op, lhs, rhs, 0))`` but with
        no leaf stash and no composition scan -- the common case pays for
        exactly one probe call.
        """
        if op not in _COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {op!r}")
        outcome = _evaluate(op, lhs, rhs)
        d_true, d_false = self._distances(op, lhs, rhs)
        return self._finish(conditional, outcome, d_true, d_false)

    def cmp(self, conditional: int, op: str, lhs, rhs, leaf: int) -> bool:
        """Instrumented comparison inside a Boolean combination test.

        Computes the branch distances of Def. 4.1 towards the true and the
        false outcome, stashes them under ``leaf`` (the index the test's
        composition program pushes them by) for :meth:`resolve`, and returns
        the outcome of the comparison so program semantics are preserved.
        """
        if op not in _COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {op!r}")
        outcome = _evaluate(op, lhs, rhs)
        self._leaves.setdefault(conditional, {})[leaf] = self._distances(op, lhs, rhs)
        return outcome

    def tleaf(self, conditional: int, leaf: int, value, negated: bool = False) -> bool:
        """Non-comparison leaf inside a composition tree.

        The value is promoted exactly like :meth:`truth` (numbers compare
        against 0, Booleans get epsilon distances, anything else contributes
        no distance); ``negated`` folds a De-Morganed ``not`` into the leaf.
        """
        outcome, d_true, d_false = self._promoted(value)
        if negated:
            outcome = not outcome
            d_true, d_false = d_false, d_true
        self._leaves.setdefault(conditional, {})[leaf] = (d_true, d_false)
        return outcome

    def truth(self, conditional: int, value) -> bool:
        """Instrumented non-comparison test (e.g. ``if flag:``).

        Numeric values are promoted to the comparison ``value != 0``
        (Sect. 5.3); other values -- including ``int``s too large for
        ``float()`` -- only get coverage recording.
        """
        outcome, d_true, d_false = self._promoted(value)
        return self._finish(conditional, outcome, d_true, d_false)

    def resolve(self, conditional: int, program: tuple[int, ...], outcome) -> bool:
        """Finalize the evaluation of ``conditional``'s test.

        ``program`` is the test's postfix composition program (a token
        tuple, see the module docstring) over the leaves stashed by
        :meth:`cmp`/:meth:`tleaf`.  The composed distances are handed to the
        penalty policy which updates ``r``; the branch taken is added to the
        coverage record.
        """
        leaves = self._leaves.pop(conditional, {})
        d_true, d_false = _compose_program(program, leaves)
        return self._finish(conditional, bool(outcome), d_true, d_false)

    # -- internals -------------------------------------------------------------

    def _promoted(self, value) -> tuple[bool, Optional[float], Optional[float]]:
        """Truthiness outcome plus the Sect. 5.3 promoted distance pair."""
        outcome = bool(value)
        if isinstance(value, bool):
            d_true: Optional[float] = 0.0 if outcome else DEFAULT_EPSILON
            d_false: Optional[float] = DEFAULT_EPSILON if outcome else 0.0
        elif isinstance(value, (int, float)):
            # _distances converts to float itself and degrades to coverage-only
            # recording when the conversion fails (e.g. OverflowError on a
            # huge int).
            d_true, d_false = self._distances("!=", value, 0.0)
        else:
            d_true, d_false = None, None
        return outcome, d_true, d_false

    def _finish(
        self,
        conditional: int,
        outcome: bool,
        d_true: Optional[float],
        d_false: Optional[float],
    ) -> bool:
        """Apply the penalty policy and record one conditional evaluation."""
        if self.policy is not None and (d_true is not None or d_false is not None):
            self._r = float(
                self.policy.penalty(conditional, d_true, d_false, outcome, self._r)
            )
        self._record.register(
            ConditionalOutcome(
                conditional=conditional,
                outcome=outcome,
                distance_true=d_true,
                distance_false=d_false,
            )
        )
        return outcome

    def _distances(self, op: str, lhs, rhs) -> tuple[Optional[float], Optional[float]]:
        try:
            a = float(lhs)
            b = float(rhs)
        except (TypeError, ValueError, OverflowError):
            # OverflowError: an ``int`` beyond float range (satellite of the
            # Sect. 5.3 promotion); treat like any other incomparable value.
            return None, None
        if math.isnan(a) or math.isnan(b):
            # NaN comparisons are all-false except ``!=``; there is no usable
            # gradient, so report a large constant distance.
            big = BIG_DISTANCE
            return (0.0, big) if op == "!=" else (big, 0.0)
        return branch_distance(op, a, b), branch_distance(negate_op(op), a, b)


class FastRuntime:
    """The allocation-free runtime that harvests an accepted minimum.

    Hardwires CoverMe's ``pen`` (Def. 4.2) against a *saturated-branch
    bitmask* frozen at :meth:`begin`:

    * both branches of the conditional saturated -- keep ``r`` (case c); no
      distance is computed at all;
    * neither saturated -- ``r`` becomes 0 (case a); no distance either,
      except the operands are still checked for float-comparability so the
      recording runtime's "no usable distance => keep ``r``" degradation is
      reproduced exactly;
    * exactly one saturated -- ``r`` becomes the branch distance towards the
      unsaturated branch (case b), computed with the same
      :func:`~repro.core.branch_distance.branch_distance` arithmetic as the
      recording runtime, so the two produce bit-identical ``r`` values.

    Coverage is kept as a flat bytearray indexed by :func:`branch_bit`
    (two machine operations per conditional, no per-conditional objects);
    the last executed conditional is tracked for the infeasible-branch
    heuristic.  The per-execution path is *not* retained -- use the
    recording :class:`Runtime` when the trace matters.

    The saturation snapshot is frozen per execution, which is sound inside
    one engine start (the tracker is only folded between starts); callers
    whose tracker evolves must pass the current mask to every
    :meth:`begin`.
    """

    __slots__ = (
        "n_conditionals",
        "saturated_mask",
        "total_evaluations",
        "_r",
        "_covered",
        "_zeros",
        "_leaf_slots",
        "_stack_t",
        "_stack_f",
        "_stack_u",
        "_last_conditional",
        "_last_outcome",
    )

    def __init__(self, n_conditionals: int, saturated_mask: int = 0):
        self.n_conditionals = n_conditionals
        self.saturated_mask = saturated_mask
        self.total_evaluations = 0
        self._r = 1.0
        self._zeros = bytes(2 * n_conditionals)
        self._covered = bytearray(self._zeros)
        # Composition-tree state, allocated once per conditional on first use
        # and reused across executions: per-leaf distance slots validated by
        # (execution, resolve-generation) stamps -- begin() stays O(1) and no
        # per-execution objects are created -- plus shared postfix stacks.
        self._leaf_slots: dict[int, list] = {}
        self._stack_t: list[float] = []
        self._stack_f: list[float] = []
        self._stack_u = bytearray()
        self._last_conditional = -1
        self._last_outcome = False

    # -- execution lifecycle -------------------------------------------------

    def begin(self, saturated_mask: Optional[int] = None) -> None:
        """Start one execution against ``saturated_mask`` (kept when omitted)."""
        if saturated_mask is not None:
            self.saturated_mask = saturated_mask
        self._r = 1.0
        self._covered[:] = self._zeros
        self._last_conditional = -1
        self.total_evaluations += 1

    @property
    def r(self) -> float:
        """Current value of the injected global register."""
        return self._r

    @property
    def last_conditional(self) -> Optional[int]:
        return self._last_conditional if self._last_conditional >= 0 else None

    @property
    def last_outcome(self) -> Optional[bool]:
        return self._last_outcome if self._last_conditional >= 0 else None

    def covered_mask(self) -> int:
        """The covered branches of the current execution as a flat bitmask."""
        mask = 0
        for bit, hit in enumerate(self._covered):
            if hit:
                mask |= 1 << bit
        return mask

    def covered_branches(self) -> frozenset[BranchId]:
        """The covered branches of the current execution as ``BranchId``s."""
        return frozenset(
            BranchId(bit >> 1, bool(bit & 1))
            for bit, hit in enumerate(self._covered)
            if hit
        )

    def snapshot(self) -> CoverageOutcome:
        """Snapshot the coverage-profile outputs of the current execution."""
        return CoverageOutcome(
            covered=self.covered_branches(),
            last_conditional=self.last_conditional,
            last_outcome=self.last_outcome,
        )

    # -- probes (called from instrumented code) -------------------------------

    def test(self, conditional: int, op: str, lhs, rhs) -> bool:
        """Fused single-comparison probe; the engine's hottest code path."""
        outcome = _evaluate(op, lhs, rhs)
        self._covered[(conditional << 1) | outcome] = 1
        self._last_conditional = conditional
        self._last_outcome = outcome
        bits = (self.saturated_mask >> (conditional << 1)) & 3
        if bits == 3:
            # Def. 4.2(c): both branches saturated, keep r; skip the
            # distance computation entirely.
            return outcome
        lhs_type = lhs.__class__
        if lhs_type is not float or rhs.__class__ is not float:
            try:
                lhs = float(lhs)
                rhs = float(rhs)
            except (TypeError, ValueError, OverflowError):
                # No usable distance: the recording runtime keeps r here.
                return outcome
        if bits == 0:
            # Def. 4.2(a): any outcome saturates a new branch.
            self._r = 0.0
            return outcome
        if lhs != lhs or rhs != rhs:  # NaN operand (matches Runtime._distances)
            if bits == 1:  # steer towards the true branch
                self._r = 0.0 if op == "!=" else BIG_DISTANCE
            else:  # steer towards the false branch
                self._r = BIG_DISTANCE if op == "!=" else 0.0
            return outcome
        if bits == 1:
            # Def. 4.2(b): only the false branch saturated; steer to true.
            self._r = branch_distance(op, lhs, rhs)
        else:
            # Def. 4.2(b): only the true branch saturated; steer to false.
            self._r = branch_distance(negate_op(op), lhs, rhs)
        return outcome

    def cmp(self, conditional: int, op: str, lhs, rhs, leaf: int) -> bool:
        """Comparison inside a Boolean combination; stashes distances."""
        outcome = _evaluate(op, lhs, rhs)  # raises on an unsupported operator
        if (self.saturated_mask >> (conditional << 1)) & 3 == 3:
            # Def. 4.2(c): both branches saturated -- whatever the composed
            # pair would be, r is kept; resolve() skips the composition for
            # this conditional too, so nothing needs to be stashed at all.
            return outcome
        slots = self._leaf_slots.get(conditional)
        if slots is None or leaf >= len(slots[1]):
            slots = self._grow_leaf_slots(conditional, leaf)
        execs, gens, ts, fs, oks = slots[1], slots[2], slots[3], slots[4], slots[5]
        execs[leaf] = self.total_evaluations
        gens[leaf] = slots[0]
        if lhs.__class__ is float:
            a = lhs
        else:
            try:
                a = float(lhs)
            except (TypeError, ValueError, OverflowError):
                oks[leaf] = 0
                return outcome
        if rhs.__class__ is float:
            b = rhs
        else:
            try:
                b = float(rhs)
            except (TypeError, ValueError, OverflowError):
                oks[leaf] = 0
                return outcome
        if a != a or b != b:  # NaN operand (matches Runtime._distances)
            if op == "!=":
                ts[leaf] = 0.0
                fs[leaf] = BIG_DISTANCE
            else:
                ts[leaf] = BIG_DISTANCE
                fs[leaf] = 0.0
        else:
            # Both directions of Def. 4.1 fused around one squared gap; the
            # branch-by-branch cases reproduce branch_distance(op)/
            # branch_distance(negate_op(op)) bit for bit ((b-a)**2 == (a-b)**2
            # exactly, min() keeps a NaN gap like _squared_gap does).
            eps = DEFAULT_EPSILON
            gap = a - b
            g = BIG_DISTANCE if math.isinf(gap) else min(gap * gap, BIG_DISTANCE)
            if op == "<":
                ts[leaf] = 0.0 if a < b else g + eps
                fs[leaf] = 0.0 if b <= a else g
            elif op == "<=":
                ts[leaf] = 0.0 if a <= b else g
                fs[leaf] = 0.0 if b < a else g + eps
            elif op == ">":
                ts[leaf] = 0.0 if b < a else g + eps
                fs[leaf] = 0.0 if a <= b else g
            elif op == ">=":
                ts[leaf] = 0.0 if b <= a else g
                fs[leaf] = 0.0 if a < b else g + eps
            elif op == "==":
                ts[leaf] = g
                fs[leaf] = eps if a == b else 0.0
            else:  # "!=" -- _evaluate() already rejected everything else
                ts[leaf] = 0.0 if a != b else eps
                fs[leaf] = g
        oks[leaf] = 1
        return outcome

    def tleaf(self, conditional: int, leaf: int, value, negated: bool = False) -> bool:
        """Non-comparison leaf inside a composition tree (promoted truthiness)."""
        outcome = bool(value)
        if (self.saturated_mask >> (conditional << 1)) & 3 == 3:
            # Def. 4.2(c): resolve() will keep r without composing.
            return not outcome if negated else outcome
        slots = self._leaf_slots.get(conditional)
        if slots is None or leaf >= len(slots[1]):
            slots = self._grow_leaf_slots(conditional, leaf)
        execs, gens, ts, fs, oks = slots[1], slots[2], slots[3], slots[4], slots[5]
        execs[leaf] = self.total_evaluations
        gens[leaf] = slots[0]
        if isinstance(value, bool):
            d_true = 0.0 if outcome else DEFAULT_EPSILON
            d_false = DEFAULT_EPSILON if outcome else 0.0
        elif isinstance(value, (int, float)):
            try:
                promoted = float(value)
            except (TypeError, ValueError, OverflowError):
                oks[leaf] = 0
                return not outcome if negated else outcome
            if promoted != promoted:  # NaN is != 0: the test holds
                d_true, d_false = 0.0, BIG_DISTANCE
            else:
                d_true = branch_distance("!=", promoted, 0.0)
                d_false = branch_distance("==", promoted, 0.0)
        else:
            oks[leaf] = 0
            return not outcome if negated else outcome
        if negated:
            outcome = not outcome
            d_true, d_false = d_false, d_true
        ts[leaf] = d_true
        fs[leaf] = d_false
        oks[leaf] = 1
        return outcome

    def truth(self, conditional: int, value) -> bool:
        """Non-comparison test; same promotion rules as the recording runtime."""
        outcome = bool(value)
        if isinstance(value, bool):
            d_true: Optional[float] = 0.0 if outcome else DEFAULT_EPSILON
            d_false: Optional[float] = DEFAULT_EPSILON if outcome else 0.0
        elif isinstance(value, (int, float)):
            d_true, d_false = self._distances("!=", value, 0.0)
        else:
            d_true, d_false = None, None
        return self._finish(conditional, outcome, d_true, d_false)

    def resolve(self, conditional: int, program: tuple[int, ...], outcome) -> bool:
        """Finalize a Boolean-combination test stashed by :meth:`cmp`/:meth:`tleaf`."""
        outcome = bool(outcome)
        if (self.saturated_mask >> (conditional << 1)) & 3 == 3:
            # Def. 4.2(c): r is kept whatever the composed pair would be;
            # the saturation mask is frozen per execution, so the leaves
            # skipped the stash under the same decision.
            return self._finish(conditional, outcome, None, None)
        d_true, d_false = self._compose_tree(conditional, program)
        return self._finish(conditional, outcome, d_true, d_false)

    # -- internals -------------------------------------------------------------

    def _grow_leaf_slots(self, conditional: int, leaf: int) -> list:
        """Create or grow the reusable leaf-slot arrays of one conditional.

        Slot layout: ``[generation, exec_stamps, gen_stamps, d_true, d_false,
        usable]``.  A leaf slot is valid only when both stamps match the
        current execution and the conditional's resolve generation, so loop
        iterations and interleaved helper calls never see stale distances.
        """
        slots = self._leaf_slots.get(conditional)
        if slots is None:
            slots = [0, [], [], [], [], bytearray()]
            self._leaf_slots[conditional] = slots
        grow = leaf + 1 - len(slots[1])
        if grow > 0:
            slots[1].extend([-1] * grow)
            slots[2].extend([-1] * grow)
            slots[3].extend([0.0] * grow)
            slots[4].extend([0.0] * grow)
            slots[5].extend(bytearray(grow))
        return slots

    def _compose_tree(
        self, conditional: int, program: tuple[int, ...]
    ) -> tuple[Optional[float], Optional[float]]:
        """Allocation-free mirror of :func:`_compose_program`.

        Executes the postfix program on the preallocated stacks against the
        conditional's stamped leaf slots, then bumps the conditional's
        resolve generation so the next evaluation round (e.g. the next
        ``while`` iteration) starts from blank leaves.
        """
        slots = self._leaf_slots.get(conditional)
        stack_t, stack_f, stack_u = self._stack_t, self._stack_f, self._stack_u
        if len(program) > len(stack_t):
            grow = len(program) - len(stack_t)
            stack_t.extend([0.0] * grow)
            stack_f.extend([0.0] * grow)
            stack_u.extend(bytearray(grow))
        if slots is None:
            generation = 0
            execs: list = []
            gens: list = []
            ts: list = []
            fs: list = []
            oks: bytearray = bytearray()
        else:
            generation = slots[0]
            execs = slots[1]
            gens = slots[2]
            ts = slots[3]
            fs = slots[4]
            oks = slots[5]
        exec_stamp = self.total_evaluations
        n_slots = len(execs)
        sp = 0
        for token in program:
            if token >= 0:
                if (
                    token < n_slots
                    and execs[token] == exec_stamp
                    and gens[token] == generation
                    and oks[token]
                ):
                    stack_t[sp] = ts[token]
                    stack_f[sp] = fs[token]
                    stack_u[sp] = 1
                else:
                    stack_u[sp] = 0
                sp += 1
            elif token == TREE_NOT:
                if sp == 0:
                    raise ValueError("malformed composition program: NOT on empty stack")
                if stack_u[sp - 1]:
                    stack_t[sp - 1], stack_f[sp - 1] = stack_f[sp - 1], stack_t[sp - 1]
            else:
                arity = (-token) >> 1
                if arity < 2 or arity > sp:
                    raise ValueError(f"malformed composition program token {token}")
                is_or = (-token) & 1
                base = sp - arity
                d_true = 0.0
                d_false = 0.0
                usable = 0
                for index in range(base, sp):
                    if not stack_u[index]:
                        continue
                    t = stack_t[index]
                    f = stack_f[index]
                    if not usable:
                        d_true, d_false = t, f
                        usable = 1
                    elif is_or:
                        if t < d_true:
                            d_true = t
                        d_false = d_false + f
                    else:
                        d_true = d_true + t
                        if f < d_false:
                            d_false = f
                sp = base
                if usable:
                    stack_t[sp] = d_true
                    stack_f[sp] = d_false
                    stack_u[sp] = 1
                else:
                    stack_u[sp] = 0
                sp += 1
        if sp != 1:
            raise ValueError("malformed composition program: non-singleton result")
        if slots is not None:
            slots[0] = generation + 1
        if stack_u[0]:
            return stack_t[0], stack_f[0]
        return None, None

    def _finish(
        self,
        conditional: int,
        outcome: bool,
        d_true: Optional[float],
        d_false: Optional[float],
    ) -> bool:
        self._covered[(conditional << 1) | outcome] = 1
        self._last_conditional = conditional
        self._last_outcome = outcome
        if d_true is None and d_false is None:
            return outcome
        bits = (self.saturated_mask >> (conditional << 1)) & 3
        if bits == 0:
            self._r = 0.0
        elif bits == 1:
            if d_true is not None:
                self._r = d_true
        elif bits == 2:
            if d_false is not None:
                self._r = d_false
        return outcome

    def _distances(self, op: str, lhs, rhs) -> tuple[Optional[float], Optional[float]]:
        try:
            a = float(lhs)
            b = float(rhs)
        except (TypeError, ValueError, OverflowError):
            return None, None
        if math.isnan(a) or math.isnan(b):
            big = BIG_DISTANCE
            return (0.0, big) if op == "!=" else (big, 0.0)
        return branch_distance(op, a, b), branch_distance(negate_op(op), a, b)


class RuntimeHandle:
    """Mutable holder through which instrumented code reaches the runtime.

    The instrumented module namespace closes over one handle; swapping the
    installed runtime lets many measurements reuse the same compiled code.
    :meth:`install` rebinds the probe methods directly to the installed
    runtime's bound methods, so the per-probe forwarding cost is zero.
    """

    def __init__(self) -> None:
        self._runtime: Optional[Runtime | FastRuntime] = None

    def install(self, runtime: "Runtime | FastRuntime") -> None:
        self._runtime = runtime
        # Instance attributes shadow the class-level fallbacks below, making
        # every probe a direct call on the runtime.
        self.test = runtime.test
        self.cmp = runtime.cmp
        self.tleaf = runtime.tleaf
        self.truth = runtime.truth
        self.resolve = runtime.resolve

    @property
    def runtime(self) -> "Runtime | FastRuntime":
        if self._runtime is None:
            raise RuntimeError("no Runtime installed on this handle")
        return self._runtime

    # Class-level fallbacks: reached only before the first install().
    def test(self, conditional: int, op: str, lhs, rhs) -> bool:
        return self.runtime.test(conditional, op, lhs, rhs)

    def cmp(self, conditional: int, op: str, lhs, rhs, leaf: int) -> bool:
        return self.runtime.cmp(conditional, op, lhs, rhs, leaf)

    def tleaf(self, conditional: int, leaf: int, value, negated: bool = False) -> bool:
        return self.runtime.tleaf(conditional, leaf, value, negated)

    def truth(self, conditional: int, value) -> bool:
        return self.runtime.truth(conditional, value)

    def resolve(self, conditional: int, program: tuple[int, ...], outcome) -> bool:
        return self.runtime.resolve(conditional, program, outcome)


def _evaluate(op: str, lhs, rhs) -> bool:
    if op == "==":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise ValueError(f"unsupported comparison operator {op!r}")


def _compose_program(
    program: tuple[int, ...],
    leaves: dict[int, tuple[Optional[float], Optional[float]]],
) -> tuple[Optional[float], Optional[float]]:
    """Execute a postfix composition program over stashed leaf distances.

    Children without a usable pair (short-circuited or non-numeric)
    contribute nothing, and a node whose children are all unusable is itself
    unusable.  The arithmetic
    (left-to-right sums, first-wins minima) is ordered identically to
    :meth:`FastRuntime._compose_tree` so both runtimes compose bit-identical
    distances.
    """
    stack: list[Optional[tuple[float, float]]] = []
    for token in program:
        if token >= 0:
            pair = leaves.get(token)
            if pair is not None and pair[0] is None:
                pair = None
            stack.append(pair)  # type: ignore[arg-type]
        elif token == TREE_NOT:
            if not stack:
                raise ValueError("malformed composition program: NOT on empty stack")
            pair = stack[-1]
            if pair is not None:
                stack[-1] = (pair[1], pair[0])
        else:
            arity = (-token) >> 1
            if arity < 2 or arity > len(stack):
                raise ValueError(f"malformed composition program token {token}")
            is_or = (-token) & 1
            base = len(stack) - arity
            d_true: Optional[float] = None
            d_false: Optional[float] = None
            for index in range(base, len(stack)):
                pair = stack[index]
                if pair is None:
                    continue
                t, f = pair
                if d_true is None:
                    d_true, d_false = t, f
                elif is_or:
                    if t < d_true:
                        d_true = t
                    d_false = d_false + f  # type: ignore[operator]
                else:
                    d_true = d_true + t
                    if f < d_false:  # type: ignore[operator]
                        d_false = f
            del stack[base:]
            stack.append(None if d_true is None else (d_true, d_false))  # type: ignore[arg-type]
    if len(stack) != 1:
        raise ValueError("malformed composition program: non-singleton result")
    final = stack[0]
    if final is None:
        return None, None
    return final
