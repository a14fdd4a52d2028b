"""Tests of the benchmark's own code: reference answers, corpus, tracer.

  python3 -m pytest -q perfbench
"""

import itertools
import random
from types import SimpleNamespace

import pytest

import corpus
import reference as R
import run
import worker
from spans import Tracer

# a 4-cycle 1-2-3-4 plus the chord 1-3; lists differ per vertex
INST = R.make(
    4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], [(1, 2), (2, 3), (3, 4), (2, 5)]
)
GOOD = (1, 2, 3, 2)


def test_checker_accepts_a_valid_coloring():
    assert R.certificate_defect(INST, GOOD) is None
    assert R.outcome_defect(INST, "colorable", "colorable", GOOD) is None


def test_checker_rejects_a_monochromatic_edge():
    # vertices 2 and 4 are not adjacent; 1 and 2 are, both colored 2
    assert "monochromatic" in R.certificate_defect(INST, (2, 2, 3, 5))


def test_checker_rejects_an_off_list_color():
    assert "not in its list" in R.certificate_defect(INST, (1, 2, 3, 4))


def test_checker_rejects_a_wrong_length():
    assert "entries" in R.certificate_defect(INST, GOOD[:3])
    assert "entries" in R.certificate_defect(INST, GOOD + (1,))


def test_checker_rejects_a_verdict_that_disagrees():
    assert "expected" in R.outcome_defect(INST, "colorable", "not-colorable", None)
    assert "expected" in R.outcome_defect(INST, "not-colorable", "colorable", GOOD)
    assert "expected" in R.outcome_defect(INST, "colorable", "aborted", None)
    assert "without a coloring" in R.outcome_defect(INST, "colorable", "colorable", None)


def _outcomes_of(solve):
    outcomes = []
    worker.solve_pass(SimpleNamespace(solve=solve), [INST], None, outcomes)
    return outcomes


def test_a_solve_that_raises_or_aborts_fails_the_run():
    entries = [{"file": "000.txt", "verdict": "colorable"}]
    raised = _outcomes_of(lambda inst, opts: 1 // 0)
    assert raised[0][1].startswith("error: ZeroDivisionError")
    assert run.check(entries, [INST], raised) == (1, False)
    aborted = SimpleNamespace(status="aborted", coloring=None, stats={})
    assert run.check(entries, [INST], _outcomes_of(lambda i, o: aborted)) == (1, False)
    solved = SimpleNamespace(status="colorable", coloring=GOOD, stats={})
    assert run.check(entries, [INST], _outcomes_of(lambda i, o: solved)) == (0, True)


def test_checker_reads_the_instance_text():
    assert R.read_text(R.write_text(INST)) == INST
    text = "p glist 2 1 5\ne 1 2\nl 1 3\n"  # vertex 2 keeps the full list
    assert R.certificate_defect(R.read_text(text), (3, 5)) is None


def _brute_colorings(inst):
    for phi in itertools.product(*(sorted(l) for l in inst.lists)):
        if all(phi[u] != phi[v] for u, v in inst.edges):
            yield phi


def test_exact_solver_matches_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        lists = [rng.sample(range(1, 6), rng.randint(0, 3)) for _ in range(n)]
        inst = R.make(n, edges, lists)
        assert sorted(R.list_colorings(inst)) == sorted(_brute_colorings(inst))


def test_2p3_detection():
    p3 = [(0, 1), (1, 2)]
    two = R.make(6, p3 + [(3, 4), (4, 5)], [(1, 2)] * 6)
    joined = R.make(6, p3 + [(3, 4), (4, 5), (2, 3)], [(1, 2)] * 6)  # P6
    assert R.has_2p3(two)
    assert not R.has_2p3(R.make(3, p3, [(1, 2)] * 3))
    assert R.has_2p3(R.make(7, [(i, i + 1) for i in range(6)], [(1, 2)] * 7))  # P7
    assert not R.has_2p3(joined)  # any two disjoint P3s in P6 touch


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_seeded(workload):
    assert corpus.build(workload, 3) == corpus.build(workload, 3)
    assert corpus.build(workload, 3) != corpus.build(workload, 4)


def test_constructed_instances_hold_their_claims():
    rng = random.Random(1)
    inst = corpus._large_member(rng, 40, 6)
    assert not R.has_2p3(inst)
    assert R.exact_coloring(inst) is not None
    assert R.exact_coloring(corpus.multipartite((2, 2, 2, 2), (1, 2, 3))) is None
    assert R.exact_coloring(corpus.multipartite((3, 3, 3), (1, 2, 3))) is not None


def test_tracer_spans_counts_and_missing_functions():
    def profile(inst, r):
        yield from range(3)

    def lift(trace, phi):
        return phi

    pkg = SimpleNamespace(pipeline=SimpleNamespace(frugal_profile=profile, lift=lift))
    tracer = Tracer(pkg)
    tracer.install()
    root = tracer.open("pipeline.solve")
    assert list(pkg.pipeline.frugal_profile(None, 2)) == [0, 1, 2]
    assert pkg.pipeline.lift([1, 2], (3,)) == (3,)
    tracer.close(root)
    tracer.uninstall()
    assert pkg.pipeline.lift is lift and pkg.pipeline.frugal_profile is profile
    assert "rp3color.pipeline.anticomplete_packing" in tracer.missing
    assert "rp3color.twosat.to_2sat" in tracer.missing
    assert tracer.counts == {"profiles.elements": 3, "pipeline.lift_steps": 2}
    # three yielding steps and the final empty one, the lift, and the root
    assert [s[0] for s in tracer.spans].count("profiles.profile") == 4
    assert all(s[3] == root for s in tracer.spans[1:])
    assert set(tracer.self_times()) == {"pipeline.solve", "profiles.profile", "pipeline.lift"}
