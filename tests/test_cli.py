"""Command line behavior: certificates, exit codes, determinism."""

import logging
import os
import subprocess
import sys

import pytest

import rp3color
from rp3color import InstanceError, parse_instance
from rp3color.cli import main

from instance_reference import verify_coloring

P3_FULL = "p glist 3 2 5\ne 1 2\ne 2 3\n"
# a 6-cycle with lists {1,2}: each vertex has as many list-graph
# neighbors as colors, so the peel leaves it whole, and its complement is
# connected, so it does not split; the search runs (two profile
# elements, one leaf)
C6_TWO = "p glist 6 6 5\n" + "".join(
    f"e {v} {v % 6 + 1}\n" for v in range(1, 7)
) + "".join(f"l {v} 1 2\n" for v in range(1, 7))
TWO_P3 = "p glist 6 4 5\ne 1 2\ne 2 3\ne 4 5\ne 5 6\n"
K6 = "p glist 6 15 5\n" + "".join(
    f"e {u} {v}\n" for u in range(1, 7) for v in range(u + 1, 7)
)
NAE = "p nae 3 1\nc 1 2 3\n"


def put(tmp_path, text, name="in.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def coloring_from(out):
    lines = out.strip().splitlines()
    phi = [0] * (len(lines) - 1)
    for line in lines[1:]:
        _, v, c = line.split()
        phi[int(v) - 1] = int(c)
    return tuple(phi)


def test_solve_colorable(tmp_path, capsys):
    code = main(["solve", put(tmp_path, P3_FULL)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("s COLORABLE\n")
    phi = coloring_from(out)
    assert verify_coloring(parse_instance(P3_FULL), phi)


def test_solve_not_colorable(tmp_path, capsys):
    code = main(["solve", put(tmp_path, K6)])
    assert code == 1
    assert capsys.readouterr().out == "s NOT_COLORABLE\n"


def test_solve_not_free_witness(tmp_path, capsys):
    code = main(["solve", put(tmp_path, TWO_P3)])
    out = capsys.readouterr().out
    assert code == 2
    assert out == "s NOT_RP3FREE\nw 1 2 3\nw 4 5 6\n"


def test_solve_force_prints_caveat(tmp_path, capsys):
    code = main(["solve", "--force", put(tmp_path, TWO_P3)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("s COLORABLE\n")
    assert "--force" in captured.err
    phi = coloring_from(captured.out)
    assert verify_coloring(parse_instance(TWO_P3), phi)


def test_solve_budget_abort(tmp_path, capsys):
    code = main(["solve", "--budget", "1", put(tmp_path, C6_TWO)])
    assert code == 3
    assert capsys.readouterr().out == "s ABORTED\n"


def test_solve_crash_exits_5(tmp_path, capsys, monkeypatch):
    def crash(inst, opts):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("rp3color.cli.solve", crash)
    code = main(["solve", put(tmp_path, P3_FULL)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: internal: RecursionError: maximum recursion depth exceeded"
    )


def test_solve_internal_value_error_exits_5(tmp_path, capsys, monkeypatch):
    # InstanceError is a ValueError; raised inside the search it is a
    # bug, not a usage error
    def broken(inst):
        raise InstanceError("good P3 at (0, 1, 2)")

    monkeypatch.setattr("rp3color.pipeline.reduce_to_binary", broken)
    code = main(["solve", put(tmp_path, C6_TWO)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: internal: InstanceError: good P3 at (0, 1, 2)"
    )


def test_solve_wrong_k_is_usage_error(tmp_path, capsys):
    code = main(["solve", put(tmp_path, "p glist 3 2 3\ne 1 2\ne 2 3\n")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "k=3, need 5" in captured.err


def disjoint_triangles(t):
    lines = [f"p glist {3 * t} {3 * t} 5"]
    for i in range(t):
        a, b, c = 3 * i + 1, 3 * i + 2, 3 * i + 3
        lines += [f"e {a} {b}", f"e {a} {c}", f"e {b} {c}"]
    lines += [f"l {v} 1 2 3" for v in range(1, 3 * t + 1)]
    return "\n".join(lines) + "\n"


def test_solve_many_disjoint_triangles(tmp_path, capsys):
    # n = 1,020: deeper than one interpreter frame per vertex allows
    text = disjoint_triangles(340)
    code = main(["solve", put(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("s COLORABLE\n")
    assert verify_coloring(parse_instance(text), coloring_from(out))


def test_oracle_many_disjoint_triangles(tmp_path, capsys):
    text = disjoint_triangles(340)
    code = main(["oracle", put(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("s COLORABLE\n")
    assert verify_coloring(parse_instance(text), coloring_from(out))


def test_solve_many_disjoint_p3s_packing(tmp_path, capsys):
    # r = 1,100: deeper than one interpreter frame per packed path allows
    t = 1100
    lines = [f"p glist {3 * t} {2 * t} 5"]
    for i in range(t):
        lines += [f"e {3 * i + 1} {3 * i + 2}", f"e {3 * i + 2} {3 * i + 3}"]
    code = main(["solve", "--r", str(t), put(tmp_path, "\n".join(lines) + "\n")])
    out = capsys.readouterr().out
    assert code == 2
    assert out == "s NOT_RP3FREE\n" + "".join(
        f"w {3 * i + 1} {3 * i + 2} {3 * i + 3}\n" for i in range(t)
    )


def test_check_free_long_path(tmp_path, capsys):
    # t = 1,000: deeper than one interpreter frame per path vertex allows
    n = 1000
    text = f"p glist {n} {n - 1} 5\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, n))
    code = main(["check-free", "--r", "1", "--t", str(n), put(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 2
    assert out == "s NOT_RP3FREE\nw " + " ".join(map(str, range(1, n + 1))) + "\n"


def test_solve_jobs_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["solve", "--jobs", "2", put(tmp_path, P3_FULL)])
    assert e.value.code == 4
    assert "--jobs" in capsys.readouterr().err


def test_solve_bad_r_is_usage_error(tmp_path, capsys):
    code = main(["solve", "--r", "0", put(tmp_path, P3_FULL)])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_solve_parse_error(tmp_path, capsys):
    code = main(["solve", put(tmp_path, "p glist 1 0 5\nz 1\n")])
    assert code == 4
    assert "line 2" in capsys.readouterr().err


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "absent.txt")])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_4():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 4
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 4


@pytest.mark.parametrize("flag", ["--count", "--size"])
def test_bench_rejects_negative_counts(flag, capsys):
    args = {"--count": "2", "--size": "4", flag: "-3"}
    argv = ["bench", "--seed", "1"] + [a for kv in args.items() for a in kv]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} -3 is negative" in captured.err


def test_oracle_matches_backtracking_order(tmp_path, capsys):
    code = main(["oracle", put(tmp_path, P3_FULL)])
    out = capsys.readouterr().out
    assert code == 0
    assert coloring_from(out) == (1, 2, 1)


def test_oracle_empty_list_uncolorable(tmp_path, capsys):
    code = main(["oracle", put(tmp_path, "p glist 1 0 5\nl 1\n")])
    assert code == 1
    assert capsys.readouterr().out == "s NOT_COLORABLE\n"


def test_oracle_frugal_flag(tmp_path):
    # properly colorable star, but the center would see three neighbors
    # wearing a color from its own list
    star = (
        "p glist 4 3 5\ne 1 2\ne 1 3\ne 1 4\n"
        "l 1 1 2\nl 2 1\nl 3 1\nl 4 1\n"
    )
    assert main(["oracle", put(tmp_path, star)]) == 0
    assert main(["oracle", "--frugal", put(tmp_path, star, "s2.txt")]) == 1


def test_check_free(tmp_path, capsys):
    p7 = "p glist 7 6 5\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 7))
    code = main(["check-free", "--r", "2", "--t", "3", put(tmp_path, p7)])
    out = capsys.readouterr().out
    assert code == 2
    assert out == "s NOT_RP3FREE\nw 1 2 3\nw 5 6 7\n"
    code = main(["check-free", "--r", "2", "--t", "4", put(tmp_path, p7, "b.txt")])
    assert code == 0
    assert capsys.readouterr().out == "s FREE\n"


def test_gen_hard_round_trips(tmp_path, capsys):
    code = main(["gen-hard", put(tmp_path, NAE)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("p glist 16 59 5\n")
    inst = parse_instance(out)
    assert inst.graph.n == 16 and inst.graph.m == 59
    assert all(mask == 0b11111 for mask in inst.lists)


def test_gen_hard_rejects_bad_formula(tmp_path, capsys):
    code = main(["gen-hard", put(tmp_path, "p nae 1 1\nc 1 2 3\n")])
    assert code == 4
    assert "line 2" in capsys.readouterr().err
    text = "# two clauses promised\np nae 3 2\nc 1 2 3\n"
    code = main(["gen-hard", put(tmp_path, text, "count.txt")])
    assert code == 4
    assert "line 2: header claims 2 clauses, found 1" in capsys.readouterr().err


def test_bench_stdout_is_deterministic(capsys):
    args = ["bench", "--seed", "3", "--count", "3", "--size", "6"]
    assert main(args) == 0
    first = capsys.readouterr()
    assert main(args) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert "bench total" in first.out
    assert "not-rp3-free=0" in first.out
    assert "took" in first.err


def test_oracle_crash_exits_5(tmp_path, capsys, monkeypatch):
    # a command with no handler of its own reports a bug through main
    def crash(inst):
        raise RuntimeError("no coloring enumerated")

    monkeypatch.setattr("rp3color.cli.solve_exact", crash)
    code = main(["oracle", put(tmp_path, P3_FULL)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: internal: RuntimeError: no coloring enumerated"
    )


def test_bench_crash_exits_5(capsys, monkeypatch):
    # an InstanceError raised inside the search is a bug, not the usage
    # error that a ValueError from the command line is
    def broken(inst, opts):
        raise InstanceError("good P3 at (0, 1, 2)")

    monkeypatch.setattr("rp3color.cli.solve", broken)
    code = main(["bench", "--seed", "1", "--count", "2", "--size", "5"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: internal: InstanceError: good P3 at (0, 1, 2)"
    )


def test_trace_goes_to_stderr(tmp_path):
    script = "from rp3color.cli import main; import sys; sys.exit(main(sys.argv[1:]))"
    # the child imports the same rp3color as the tests, installed or not
    src = os.path.dirname(os.path.dirname(rp3color.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, "solve", "--trace", put(tmp_path, C6_TWO)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("s COLORABLE\n")
    assert "element" in proc.stderr
    assert "peeled 0 of 6 vertices" in proc.stderr


def test_trace_in_process(tmp_path, capsys):
    """The same --trace run in this process, so that a tracer sees the
    logging set-up; the root logger is put back afterwards."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()  # basicConfig adds nothing to a root with handlers
    try:
        code = main(["solve", "--trace", put(tmp_path, C6_TWO)])
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("s COLORABLE\n")
    assert "element" in captured.err
    assert "peeled 0 of 6 vertices" in captured.err
