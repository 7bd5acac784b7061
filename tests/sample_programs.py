"""Small floating-point programs shared by the test suite.

They live in a real module (not inside test functions) so that
``inspect.getsource`` -- which the instrumentation pass relies on -- works.
"""

from __future__ import annotations


def single_branch(x: float) -> int:
    """One conditional, two branches."""
    if x <= 1.0:
        return 0
    return 1


def paper_foo(x: float) -> int:
    """The two-conditional program of the paper's Fig. 3 / Table 1."""
    if x <= 1.0:
        x = x + 1.0
    y = x * x
    if y == 4.0:
        return 1
    return 0


def nested_branches(x: float, y: float) -> int:
    """Nested conditionals: the inner ones are descendants of the outer arm."""
    if x > 0.0:
        if y > 0.0:
            return 1
        return 2
    if y == 5.0:
        return 3
    return 4


def early_return(x: float) -> int:
    """A guard with an early return: later branches are not descendants of it."""
    if x != x:  # NaN check
        return -1
    if x >= 100.0:
        return 1
    return 0


def loop_program(x: float) -> float:
    """A while loop whose test is an instrumented conditional."""
    total = 0.0
    while x > 1.0:
        x = x * 0.5
        total = total + 1.0
    if total >= 10.0:
        return total
    return -total


def boolean_condition(x: float, y: float) -> int:
    """Conjunction and disjunction of comparisons (extension of Def. 3.1(b))."""
    if x > 0.0 and y > 0.0:
        return 1
    if x < -10.0 or y < -10.0:
        return 2
    return 3


def equality_chain(x: float) -> int:
    """Equality constraints at different magnitudes."""
    if x == 1024.0:
        return 1
    if x == -0.0078125:
        return 2
    return 0


def truthiness(x: float) -> int:
    """A non-comparison condition (promoted to ``!= 0`` by the runtime)."""
    flag = x > 3.0
    if flag:
        return 1
    return 0


def nested_boolean(x: float, y: float) -> int:
    """A nested Boolean tree like Fdlibm's ``ix < a or (ix == a and lx <= b)``."""
    if x < -1.0 or (x == 0.0 and y <= 5.0):
        return 1
    if (x > 2.0 or y > 2.0) and x + y < 100.0:
        return 2
    return 3


def demorgan(x: float, y: float) -> int:
    """``not`` over a Boolean tree (lowered by De Morgan)."""
    if not (x > 0.0 and y > 0.0):
        return 1
    if not (x > 10.0 or y > 10.0):
        return 2
    return 3


def chained_comparison(x: float, y: float) -> int:
    """Chained comparisons: each operand must be evaluated exactly once."""
    if 0.0 < x < 10.0:
        return 1
    if -5.0 <= x + y <= 5.0 != x:
        return 2
    return 3


def ternary_test(x: float, y: float) -> int:
    """A ternary conditional expression used as a test."""
    if (x > 1.0 if y > 0.0 else x < -1.0):
        return 1
    return 2


def mixed_leaves(x: float, y: float) -> int:
    """Boolean tree with a non-comparison leaf (promoted to ``!= 0``)."""
    flag = x * y
    if flag or x > 3.0:
        return 1
    if not (x != x or y <= -2.0):
        return 2
    return 3


def while_else_loop(x: float) -> float:
    """A ``while ... else`` loop: the else runs only on normal exhaustion."""
    total = 0.0
    while x > 1.0:
        x = x * 0.5
        total = total + 1.0
        if total > 80.0:
            break
    else:
        total = total - 0.5
    return total


def huge_int_guard(x: float) -> int:
    """Operands beyond float range: distances degrade to coverage-only."""
    n = int(abs(x)) + 10**400
    if n > 5:
        return 1
    return 0


def int_square(x: float) -> int:
    """An int product beyond int64 for |x| > 2**31.5 (Python promotes it)."""
    k = int(x)
    m = k * k
    if m > 10:
        return 1
    return 0


def int_square_masked(x: float) -> int:
    """The same product masked: exact from its low 64 bits at any size."""
    k = int(x)
    m = (k * k) & 0x7FFFFFFF
    if m > 10:
        return 1
    return 0


def ternary_in_tree(x: float, y: float) -> int:
    """A ternary nested inside a Boolean tree (composition re-uses cond)."""
    if x > 0.0 and (y < 1.0 if x < 9.0 else y > 2.0):
        return 1
    return 0


def infeasible_inner(x: float) -> int:
    """The inner true branch is infeasible: y = x*x is never -1."""
    if x <= 1.0:
        x = x + 1.0
    y = x * x
    if y == -1.0:
        return 1
    return 0


def calls_helper(x: float) -> int:
    """Entry function delegating its only conditional to a helper (Sect. 5.3)."""
    return helper_goo(x)


def helper_goo(x: float) -> int:
    if x * x <= 0.25:
        return 1
    return 0


def raises_for_small(x: float) -> float:
    """Raises ZeroDivisionError for 0 < x < 1 (tests exception handling)."""
    if x > 0.0:
        return 1.0 / float(int(x))
    return 0.0


def three_dimensional(x: float, y: float, z: float) -> int:
    """Three inputs, a mix of inequality and equality constraints."""
    if x + y + z == 10.0:
        return 1
    if x * x + y * y > 100.0:
        if z < -5.0:
            return 2
        return 3
    return 4
