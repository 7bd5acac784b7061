"""Tests for the AST instrumentation pass."""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.experiments.runner import instrument_case
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument.ast_pass import (
    HANDLE_NAME,
    assign_labels,
    collect_conditionals,
    instrument_source,
)
from repro.instrument.program import instrument
from tests import sample_programs as sp


def parse_function(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    return tree.body[0]


class TestCollectConditionals:
    def test_counts_ifs_and_whiles(self):
        func = parse_function(
            """
            def f(x):
                if x > 0:
                    while x > 1:
                        x -= 1
                for i in range(3):
                    if x == i:
                        return i
                return x
            """
        )
        assert len(collect_conditionals(func)) == 3

    def test_skips_nested_function_defs(self):
        func = parse_function(
            """
            def f(x):
                def inner(y):
                    if y > 0:
                        return 1
                    return 0
                if x > 0:
                    return inner(x)
                return 0
            """
        )
        assert len(collect_conditionals(func)) == 1

    def test_source_order(self):
        func = parse_function(
            """
            def f(x):
                if x > 0:
                    if x > 1:
                        return 2
                if x < -1:
                    return -1
                return 0
            """
        )
        stmts = collect_conditionals(func)
        labels, _ = assign_labels(func)
        assert [labels[id(s)] for s in stmts] == [0, 1, 2]

    def test_elif_is_a_separate_conditional(self):
        func = parse_function(
            """
            def f(x):
                if x > 0:
                    return 1
                elif x < 0:
                    return -1
                return 0
            """
        )
        assert len(collect_conditionals(func)) == 2


class TestRewriting:
    def test_simple_comparison_is_rewritten(self):
        tree, conds, _, _ = instrument_source(
            "def f(x):\n    if x <= 1.0:\n        return 1\n    return 0\n"
        )
        text = ast.unparse(tree)
        assert f"{HANDLE_NAME}.test(0, '<=', x, 1.0)" in text
        assert len(conds) == 1
        assert conds[0].kind == "if"

    def test_negated_comparison_flips_operator(self):
        tree, _, _, _ = instrument_source(
            "def f(x):\n    if not x < 0.0:\n        return 1\n    return 0\n"
        )
        text = ast.unparse(tree)
        assert "'>='" in text

    def test_boolop_of_comparisons(self):
        tree, conds, _, _ = instrument_source(
            "def f(x, y):\n    if x > 0.0 and y > 0.0:\n        return 1\n    return 0\n"
        )
        text = ast.unparse(tree)
        # Two indexed cmp leaves composed by a postfix program: leaves 0 and
        # 1 reduced by tree_and(2) == -4.
        assert text.count(f"{HANDLE_NAME}.cmp") == 2
        assert f"{HANDLE_NAME}.resolve(0, (0, 1, -4)" in text
        assert conds[0].form == "boolean"

    def test_non_comparison_falls_back_to_truth(self):
        tree, _, _, _ = instrument_source(
            "def f(flag):\n    if flag:\n        return 1\n    return 0\n"
        )
        text = ast.unparse(tree)
        assert f"{HANDLE_NAME}.truth(0, flag)" in text

    def test_while_condition_is_rewritten(self):
        tree, conds, _, _ = instrument_source(
            "def f(x):\n    while x > 1.0:\n        x = x / 2\n    return x\n"
        )
        text = ast.unparse(tree)
        assert f"{HANDLE_NAME}.test(0, '>', x, 1.0)" in text
        assert conds[0].kind == "while"

    def test_start_label_offsets_labels(self):
        _, conds, _, _ = instrument_source(
            "def f(x):\n    if x > 0.0:\n        return 1\n    return 0\n", start_label=7
        )
        assert conds[0].label == 7

    def test_missing_function_raises(self):
        with pytest.raises(ValueError):
            instrument_source("x = 1\n", function_name="nope")

    def test_chained_comparison_lowered_to_conjunction(self):
        """``a < b < c`` splits into leaves with a single-evaluation temporary."""
        tree, conds, _, _ = instrument_source(
            "def f(x):\n    if 0.0 < x < 1.0:\n        return 1\n    return 0\n"
        )
        text = ast.unparse(tree)
        assert f"{HANDLE_NAME}.truth" not in text
        assert text.count(f"{HANDLE_NAME}.cmp") == 2
        assert ":= x" in text  # the shared middle operand is bound once
        assert conds[0].form == "chained"


class TestTreeLowering:
    """Nested trees, De Morgan, chains and ternaries become composition programs."""

    def test_nested_boolean_tree(self):
        tree, conds, _, _ = instrument_source(
            "def f(x, y):\n"
            "    if x < 0.0 or (x == 0.0 and y <= 5.0):\n"
            "        return 1\n"
            "    return 0\n"
        )
        text = ast.unparse(tree)
        assert text.count(f"{HANDLE_NAME}.cmp") == 3
        # Postfix: leaf 0, (leaves 1 2 -> and), or.
        assert f"{HANDLE_NAME}.resolve(0, (0, 1, 2, -4, -5)" in text
        assert conds[0].form == "boolean"

    def test_not_over_tree_applies_de_morgan(self):
        tree, conds, _, _ = instrument_source(
            "def f(x, y):\n"
            "    if not (x > 0.0 and y > 0.0):\n"
            "        return 1\n"
            "    return 0\n"
        )
        text = ast.unparse(tree)
        # The negation is pushed to the leaves: flipped operators, or-node.
        assert text.count("'<='") == 2
        assert f"{HANDLE_NAME}.resolve(0, (0, 1, -5)" in text
        assert conds[0].form == "boolean"

    def test_not_over_truthiness_leaf_sets_negation_flag(self):
        tree, _, _, _ = instrument_source(
            "def f(flag, x):\n"
            "    if not (flag or x > 0.0):\n"
            "        return 1\n"
            "    return 0\n"
        )
        text = ast.unparse(tree)
        assert f"{HANDLE_NAME}.tleaf(0, 0, flag, True)" in text
        assert "'<='" in text  # the comparison leaf is flipped too

    def test_ternary_composes_both_sides(self):
        tree, conds, _, _ = instrument_source(
            "def f(x, y):\n"
            "    if x > 0.0 if y > 0.0 else x < 0.0:\n"
            "        return 1\n"
            "    return 0\n"
        )
        text = ast.unparse(tree)
        # (cond and body) or (not cond and orelse): the condition's leaf 0 is
        # referenced twice, once under TREE_NOT (-1).
        assert f"{HANDLE_NAME}.resolve(0, (0, 1, -4, 0, -1, 2, -4, -5)" in text
        assert conds[0].form == "ternary"
        assert "if" in text  # the ternary expression shape is preserved

    def test_bare_non_comparison_test_is_promoted(self):
        _, conds, _, _ = instrument_source(
            "def f(m):\n    if m & 1:\n        return 1\n    return 0\n"
        )
        assert conds[0].form == "promoted"

    def test_oversized_tree_falls_back_to_truth(self):
        clauses = " or ".join(f"x > {i}.0" for i in range(70))
        _, conds, _, _ = instrument_source(
            f"def f(x):\n    if {clauses}:\n        return 1\n    return 0\n"
        )
        assert conds[0].form == "truth"

    def test_deeply_nested_ternary_falls_back_fast(self):
        """Regression: condition-position ternaries double the token program
        per nesting level; the ceiling must trip during lowering, not after
        an exponential list construction."""
        expr = "x > 1.0"
        for _ in range(24):
            expr = f"(x > 1.0 if {expr} else x < -1.0)"
        _, conds, _, _ = instrument_source(
            f"def f(x):\n    if {expr}:\n        return 1\n    return 0\n"
        )
        assert conds[0].form == "truth"

    def test_chain_operands_evaluated_exactly_once(self):
        calls.clear()
        program = instrument(chain_calls)
        value, _, record = program.run((0.5,))
        assert value == chain_calls_reference(0.5)
        # One execution evaluates x through traced() exactly once even though
        # the chain references it in two lowered comparisons.
        assert calls == [0.5, 0.5]  # instrumented + reference run
        assert len(record.path) == 1

    def test_forms_inventory_across_suite_samples(self):
        program = instrument(sp.nested_boolean)
        assert program.conditional_forms() == {"boolean": 2}
        assert program.fallback_conditionals == ()


calls: list[float] = []


def traced(value: float) -> float:
    calls.append(value)
    return value


def chain_calls(x: float) -> int:
    if 0.0 < traced(x) < 1.0:
        return 1
    return 0


def chain_calls_reference(x: float) -> int:
    return 1 if 0.0 < traced(x) < 1.0 else 0


class TestSemanticsPreserved:
    """Instrumented programs must compute exactly what the original computes."""

    @pytest.mark.parametrize(
        "func,args",
        [
            (sp.single_branch, [(0.5,), (2.0,)]),
            (sp.paper_foo, [(0.7,), (1.0,), (-3.0,), (5.2,)]),
            (sp.nested_branches, [(1.0, 1.0), (1.0, -1.0), (-1.0, 5.0), (-1.0, 0.0)]),
            (sp.loop_program, [(0.5,), (9.0,), (1.0e6,)]),
            (sp.boolean_condition, [(1.0, 1.0), (-20.0, 0.0), (0.0, 0.0)]),
            (sp.truthiness, [(5.0,), (1.0,)]),
            (sp.three_dimensional, [(1.0, 2.0, 7.0), (20.0, 1.0, -8.0), (0.0, 0.0, 0.0)]),
            (sp.nested_boolean, [(-2.0, 0.0), (0.0, 3.0), (0.0, 9.0), (5.0, 1.0), (1.0, 1.0)]),
            (sp.demorgan, [(1.0, 1.0), (-1.0, 2.0), (11.0, 0.5), (20.0, 20.0)]),
            (sp.chained_comparison, [(0.5, 0.0), (-3.0, 1.0), (12.0, -20.0), (5.0, 0.0)]),
            (sp.ternary_test, [(2.0, 1.0), (0.5, 1.0), (-2.0, -1.0), (0.0, -1.0)]),
            (sp.mixed_leaves, [(0.0, 5.0), (4.0, 0.0), (1.0, -3.0), (0.0, 0.0)]),
        ],
    )
    def test_same_return_values(self, func, args):
        program = instrument(func)
        for point in args:
            value, _, _ = program.run(point)
            assert value == func(*point)


def _probe_calls(tree: ast.AST, method: str) -> list[ast.Call]:
    """Every ``<handle>.<method>(...)`` call in an instrumented tree."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == HANDLE_NAME
        and node.func.attr == method
    ]


def _instrumented_units():
    """``(where, tree)`` for every instrumented unit of every suite entry
    (its ``extras`` included) and of every sample form."""
    samples = [
        func
        for _, func in inspect.getmembers(sp, inspect.isfunction)
        if func.__module__ == sp.__name__
    ]
    programs = [instrument_case(case) for case in BENCHMARKS]
    programs += [instrument(func) for func in samples]
    for program in programs:
        for source, name, label in program.units:
            tree, _, _, _ = instrument_source(source, function_name=name, start_label=label)
            yield f"{program.name}:{name}", tree


class TestProbeProtocol:
    """The instrumenter emits one composition protocol: each ``cmp`` stashes
    under a leaf index and each ``resolve`` runs a constant token tuple."""

    def test_cmp_passes_a_leaf_and_resolve_a_token_tuple(self):
        n_cmp = n_resolve = 0
        for where, tree in _instrumented_units():
            for call in _probe_calls(tree, "cmp"):
                assert len(call.args) == 5 and not call.keywords, where
                leaf = call.args[4]
                assert isinstance(leaf, ast.Constant), where
                assert type(leaf.value) is int and leaf.value >= 0, where
                n_cmp += 1
            for call in _probe_calls(tree, "resolve"):
                assert len(call.args) == 3 and not call.keywords, where
                program = call.args[1]
                assert isinstance(program, ast.Tuple) and program.elts, where
                for token in program.elts:
                    assert isinstance(token, ast.Constant), where
                    assert type(token.value) is int, where
                n_resolve += 1
        assert n_cmp > 0 and n_resolve > 0  # both probes are exercised
