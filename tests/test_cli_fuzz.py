"""The command line driven in process over malformed input drawn by Hypothesis.

Every call must return 0, 1 or 2 and raise nothing; a usage error (2) prints
nothing on stdout and exactly one ``error: `` line on stderr, and a failed
check (1) one ``check failed: `` line, each of bounded length; and two runs
under ``--deterministic`` give the same bytes.  The draws stay away from
valid heavy commands, so each call takes milliseconds, and each must finish
within ``CALL_BUDGET_S``.
"""

import contextlib
import io
import json
import os
import tempfile
import time

import pytest

pytest.importorskip("hypothesis")

from hypothesis import (  # noqa: E402
    assume, example, given, settings, strategies as st)

from plovlab.cli import USAGE_MAX_CHARS, main  # noqa: E402

# the flags of each command besides --out and --deterministic
FLAGS = {
    ("reproduce", "matrix-examples"): ("--format",),
    ("reproduce", "table1"): ("--format",),
    ("reproduce", "table2"): ("--n", "--dmax", "--truncate", "--extended",
                              "--format"),
    ("reproduce", "kernel"): ("--d",),
    ("reproduce", "fullrank"): ("--k", "--d", "--n"),
    ("plov",): ("--model", "--abelian-blocks"),
    ("scan",): ("--d", "--count", "--seed"),
}
ALL_FLAGS = sorted({f for flags in FLAGS.values() for f in flags})
# Wall-time budget of one call.  The slowest of about 2900 calls took 55 ms
# on a 2-core host that at times runs the same code 1.7x slower, so the
# budget leaves more than tenfold headroom beyond that swing.  It holds only
# because the strategies below stay off valid heavy commands: a valid
# `reproduce kernel --d 7` or `scan --d 6 --count 20` takes seconds.
CALL_BUDGET_S = 1.0
# a valid value of each flag; None for a flag that takes none
VALUE = {"--format": "csv", "--truncate": "2,1,1", "--extended": None,
         "--model": "model.json", "--abelian-blocks": "2"}
# a light valid call of each command, as (flag, value) pairs
LIGHT = {
    ("reproduce", "matrix-examples"): (),
    ("reproduce", "table1"): (),
    ("reproduce", "table2"): (("--truncate", "2,1,1"), ("--n", "6")),
    ("reproduce", "kernel"): (("--d", "3"),),
    ("reproduce", "fullrank"): (("--k", "2"), ("--d", "2"), ("--n", "3")),
    ("plov",): (("--abelian-blocks", "2,1"),),
    ("scan",): (("--d", "2"), ("--count", "2")),
}
COMMANDS = sorted(FLAGS)
FUZZ = settings(max_examples=60, deadline=None)


def run(argv):
    """The exit code, stdout and stderr of one call, and its wall time."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return (code, out.getvalue(), err.getvalue()), time.perf_counter() - started


def check(argv, codes=(0, 1, 2)):
    """Run argv twice and check the exit code, the output and the wall time
    of both."""
    first, first_s = run(argv)
    second, second_s = run(argv)
    assert second == first
    assert max(first_s, second_s) <= CALL_BUDGET_S, (argv[:4], first_s, second_s)
    code, out, err = first
    assert code in codes
    # no draw reaches a table mismatch, so an exit 1 is a failed check
    if code != 0:
        label = "error: " if code == 2 else "check failed: "
        assert out == ""
        assert err.startswith(label) and err.count("\n") == 1
        assert err.endswith("\n")
        # the label, the message and the marker of a cut one
        assert len(err) <= len(label) + USAGE_MAX_CHARS + 33, len(err)


def call(command, pairs, tail=()):
    """argv of a command under --deterministic: its (flag, value) pairs,
    then tail."""
    argv = [*command, "--deterministic"]
    for flag, value in pairs:
        argv += [flag] if value is None else [flag, value]
    return argv + list(tail)


def is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


@st.composite
def with_pair(draw, command, pair):
    """The light call of command with pair inserted among its pairs."""
    pairs = list(LIGHT[command])
    pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return call(command, pairs)


@st.composite
def foreign_flag(draw):
    # a flag that only other commands take, with a valid value
    command = draw(st.sampled_from(COMMANDS))
    flag = draw(st.sampled_from([f for f in ALL_FLAGS if f not in FLAGS[command]]))
    return draw(with_pair(command, (flag, VALUE.get(flag, "3"))))


@FUZZ
@given(foreign_flag())
def test_foreign_flag(argv):
    check(argv, codes=(2,))


@st.composite
def unknown_flag(draw):
    command = draw(st.sampled_from(COMMANDS))
    name = draw(st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12))
    flag = "--" + name
    assume(flag not in ALL_FLAGS and flag not in ("--out", "--deterministic",
                                                  "--help"))
    value = draw(st.one_of(st.none(), st.text(max_size=8)))
    return draw(with_pair(command, (flag, value)))


@FUZZ
@given(unknown_flag())
@example(["plov", "--deterministic", "--a", "-h", "--abelian-blocks", "2,1"])
def test_unknown_flag(argv):
    # a drawn value of -h or --help is a help request, which argparse grants
    # (exit 0, the help text on stdout) before it reports the unknown flag
    if {"-h", "--help"} & set(argv):
        check(argv, codes=(0,))
        (_, out, err), _ = run(argv)
        assert out.startswith("usage: plovlab") and err == ""
    else:
        check(argv, codes=(2,))


def test_long_argument_is_cut():
    # an unrecognized 10 000-character argument is echoed up to the cap
    check(["reproduce", "kernel", "x" * 10_000], codes=(2,))


@st.composite
def bad_value(draw):
    # a flag of the command given a value with a part that is not an int:
    # the int flags and the comma-separated tuples of --truncate and
    # --abelian-blocks
    command = draw(st.sampled_from(COMMANDS))
    flags = [f for f in FLAGS[command]
             if f not in ("--format", "--extended", "--model")]
    assume(flags)
    flag = draw(st.sampled_from(flags))
    value = draw(st.text(max_size=12).filter(
        lambda s: not all(map(is_int, s.split(",")))))
    pairs = [p for p in LIGHT[command] if p[0] != flag]
    if draw(st.booleans()):
        return call(command, pairs, (flag, value))
    return call(command, pairs, (flag,))  # the value is missing


@FUZZ
@given(bad_value())
def test_bad_value(argv):
    check(argv, codes=(2,))


NAMES = {"reproduce", "plov", "scan", *(c[1] for c in COMMANDS if len(c) == 2)}


@FUZZ
@given(st.booleans(), st.text(max_size=16).filter(
    lambda s: s not in NAMES and not s.startswith("-")))
def test_bad_command_or_target(under_reproduce, name):
    check(["reproduce", name] if under_reproduce else [name], codes=(2,))


# --model files: wrong types, an unknown key, ragged or empty rows, deep
# nesting, entries over 64 bits, a non-unimodular A and an A that is not
# quasi-unipotent

def model(a, **extra):
    return json.dumps({"type": "abelian", "A": a, **extra})


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-3, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12)


@st.composite
def wrong_types(draw):
    value = draw(json_values)
    where = draw(st.sampled_from(["A", "g", "type", "H", "document"]))
    if where == "document":
        return json.dumps(value)
    spec = {"type": "abelian", "A": [[1, 1], [0, 1]], where: value}
    return json.dumps(spec)


@st.composite
def ragged(draw):
    g = draw(st.integers(0, 4))
    lengths = draw(st.lists(st.integers(0, 5), min_size=g, max_size=g))
    assume(g == 0 or any(n != g for n in lengths))
    return model([[1] * n for n in lengths])


@st.composite
def nested(draw):
    depth = draw(st.integers(1, 100_000))
    inner = "[" * depth + "]" * draw(st.sampled_from([0, depth]))
    if draw(st.booleans()):
        return inner
    return '{"type": "abelian", "A": %s}' % inner


def det(a):
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * det([r[:j] + r[j + 1:] for r in a[1:]])
               for j in range(len(a)))


small_matrix = st.integers(2, 4).flatmap(lambda g: st.lists(
    st.lists(st.integers(-3, 3), min_size=g, max_size=g), min_size=g, max_size=g))


@st.composite
def wide_entry(draw):
    # the entry +-10^k is written as digits: str() refuses ints of more than
    # 4300 digits, and so does the JSON parser of the model file
    a = [list(r) for r in draw(small_matrix)]
    i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
    a[i][j] = None
    entry = draw(st.sampled_from(["", "-"])) + "1" + "0" * draw(
        st.integers(20, 6000))
    return model(a).replace("null", entry)


@st.composite
def not_unimodular(draw):
    a = draw(small_matrix)
    assume(det(a) not in (1, -1))
    return model(a, g=len(a))


@st.composite
def not_quasi_unipotent(draw):
    # [[2, 1], [1, 1]] (+) I, conjugated by integer shears: unimodular, with
    # an eigenvalue off the unit circle
    g = draw(st.integers(2, 4))
    a = [[int(i == j) for j in range(g)] for i in range(g)]
    a[0][0], a[0][1], a[1][0] = 2, 1, 1
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.permutations(range(g)))[:2]
        c = draw(st.integers(-2, 2))
        # a -> S^-1 a S for S = I + c E_ij
        for r in a:
            r[j] += c * r[i]
        a[i] = [x - c * y for x, y in zip(a[i], a[j])]
    return model(a)


def check_model(text, codes=(0, 1, 2)):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            fh.write(text)
        check(["plov", "--model", path, "--deterministic"], codes)


@settings(max_examples=120, deadline=None)
@given(st.one_of(wrong_types(), ragged(), nested(), wide_entry(),
                 not_unimodular(), not_quasi_unipotent(),
                 small_matrix.map(model)))
def test_malformed_model(text):
    check_model(text)


@FUZZ
@given(st.one_of(ragged(), nested(), wide_entry(), not_unimodular()))
def test_invalid_model_is_a_usage_error(text):
    check_model(text, codes=(2,))


def test_long_model_type_is_cut():
    # a --model file whose "type" is a 10 000-character string
    check_model(json.dumps({"type": "x" * 10_000, "A": [[1]]}), codes=(2,))


@FUZZ
@given(not_quasi_unipotent())
def test_not_quasi_unipotent_is_a_mismatch(text):
    check_model(text, codes=(1,))
