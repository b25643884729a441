import math

import numpy as np
import pytest

from kwtorus import ExprEvalError, ExprSyntaxError, GridSpec, evaluate, parse, to_text
from kwtorus.fieldexpr import BinOp, Call, Const, Neg, Num, Var


def test_parse_basic_shapes():
    tree = parse("sin(x0)+0.1")
    assert tree == BinOp("+", Call("sin", Var(0)), Num(0.1))
    assert parse("2*pi") == BinOp("*", Num(2.0), Const("pi"))


def test_two_pi_value():
    spec = GridSpec((8,))
    f = evaluate(parse("2*pi"), spec)
    assert np.all(f.values == 6.283185307179586)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("text", ["0.1", "-1", "2*sin(pi/4)+e"])
def test_constant_expression_holds_one_number_read_only(rank, text):
    f = evaluate(parse(text), GridSpec((8, 10, 12, 8)[:rank]))
    assert f.values.strides == (0,) * rank
    assert f.values.flags.writeable is False


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("text", ["sin(x0)", "x0-x0", "0.1+0*x0"])
def test_varying_expression_is_materialized(rank, text):
    # only a 0-d result is held as one number: an expression of a
    # variable is a full array even where its values do not vary
    f = evaluate(parse(text), GridSpec((8, 10, 12, 8)[:rank]))
    assert f.values.flags.writeable
    assert f.values.flags.c_contiguous
    assert 0 not in f.values.strides


def test_constant_roundtrip_fields_trace_less_than_one_grid():
    # s and the one-form of the benchmark's 4-D round trip (keys of its
    # argv) on 24^4: five constants, the drift's x1 and x3 components by
    # default "0", each one number instead of a 2.65 MB grid
    import tracemalloc

    from kwtorus.cli import RunConfig

    cfg = RunConfig({"dims": "24,24,24,24", "n": "2", "t": "0", "s": "-1",
                     "alpha0": "0.1", "alpha2": "0.05"})
    grid_bytes = 8 * cfg.spec.npoints
    tracemalloc.start()
    try:
        s, alpha = cfg.field("s"), cfg.one_form()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alpha.coefficients == (0.1, None, 0.05, None)
    assert float(s.values.flat[0]) == -1.0
    assert peak < grid_bytes


def test_precedence_and_associativity():
    spec = GridSpec((8,))

    def val(text):
        return evaluate(parse(text), spec).values.flat[0]

    assert val("2+3*4") == 14.0
    assert val("2*3^2") == 18.0
    assert val("-2^2") == -4.0
    assert val("(0-2)^2") == 4.0
    assert val("2^3^2") == 512.0
    assert val("8/4/2") == 1.0
    assert val("2^-1") == 0.5


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin(")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + spam")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + + 2")
    assert err.value.offset == 4


def test_evaluate_zero_and_sin():
    spec = GridSpec((16,))
    assert np.all(evaluate(parse("0"), spec).values == 0.0)
    f = evaluate(parse("sin(x0)"), spec)
    expect = np.sin(2 * np.pi * np.arange(16) / 16)
    assert np.max(np.abs(f.values - expect)) == 0.0


def test_domain_errors():
    spec = GridSpec((16,))
    with pytest.raises(ExprEvalError, match="log"):
        evaluate(parse("log(x0-10)"), spec)
    with pytest.raises(ExprEvalError, match="rank"):
        evaluate(parse("x1"), spec)
    with pytest.raises(ExprEvalError, match="division"):
        evaluate(parse("1/x0"), spec)
    with pytest.raises(ExprEvalError, match="exponent"):
        evaluate(parse("(0-2)^0.5"), spec)


def _random_tree(rng: np.random.Generator, depth: int):
    if depth == 0:
        kind = rng.integers(0, 3)
        if kind == 0:
            return Num(round(float(rng.uniform(0.1, 3.0)), 3))
        if kind == 1:
            return Const("pi" if rng.random() < 0.5 else "e")
        return Var(int(rng.integers(0, 2)))
    kind = rng.integers(0, 6)
    if kind == 0:
        return Neg(_random_tree(rng, depth - 1))
    if kind == 1:
        fn = ["sin", "cos", "tanh", "abs", "exp"][int(rng.integers(0, 5))]
        arg = _random_tree(rng, depth - 1)
        if fn == "exp":
            arg = Call("tanh", arg)  # keep magnitudes tame
        return Call(fn, arg)
    if kind == 2:
        # guarded log: argument abs(...) + 0.5 stays positive
        return Call("log", BinOp("+", Call("abs", _random_tree(rng, depth - 1)), Num(0.5)))
    op = ["+", "-", "*", "/"][int(rng.integers(0, 4))]
    left = _random_tree(rng, depth - 1)
    right = _random_tree(rng, depth - 1)
    if op == "/":
        right = BinOp("+", Call("abs", right), Num(0.5))
    return BinOp(op, left, right)


def _oracle(node, coords):
    """Independent pointwise evaluator using the math module."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return {"pi": math.pi, "e": math.e}[node.name]
    if isinstance(node, Var):
        return coords[node.index]
    if isinstance(node, Neg):
        return -_oracle(node.operand, coords)
    if isinstance(node, Call):
        fn = {
            "sin": math.sin, "cos": math.cos, "exp": math.exp,
            "log": math.log, "abs": abs, "tanh": math.tanh,
        }[node.func]
        return fn(_oracle(node.arg, coords))
    left = _oracle(node.left, coords)
    right = _oracle(node.right, coords)
    return {
        "+": lambda: left + right,
        "-": lambda: left - right,
        "*": lambda: left * right,
        "/": lambda: left / right,
        "^": lambda: left ** right,
    }[node.op]()


def test_evaluate_matches_pointwise_oracle():
    rng = np.random.default_rng(101)
    spec = GridSpec((8, 8))
    xs = spec.axis_coords(0)
    ys = spec.axis_coords(1)
    for _ in range(100):
        tree = _random_tree(rng, 3)
        field = evaluate(tree, spec)
        for i in (0, 3, 5):
            for j in (0, 2, 7):
                expect = _oracle(tree, (xs[i], ys[j]))
                got = field.values[i, j]
                assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


def test_print_reparse_idempotent():
    rng = np.random.default_rng(202)
    spec = GridSpec((8, 8))
    for _ in range(100):
        tree = _random_tree(rng, 3)
        text = to_text(tree)
        reparsed = parse(text)
        assert reparsed == tree
        assert to_text(reparsed) == text
        a = evaluate(tree, spec).values
        b = evaluate(reparsed, spec).values
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
