"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the assertions are identical either way.
"""
import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from grouptower.words import parse_word, stable, max_stage
from grouptower import cli, fieldext, minstruct, oracles
from grouptower.constructions import (
    check_conditions,
    classical_centralizer_witnesses,
    classical_state,
    classical_step,
    run_construction,
)
from grouptower.tower import ExtensionTower, britton_reduce, commutes, nf_word

W = parse_word


@pytest.fixture(scope="module")
def six_stage_state():
    return run_construction(6, radius=2, power_bound=4)


@pytest.fixture(scope="module")
def six_stage_report(six_stage_state):
    return check_conditions(six_stage_state, min_centralizer_candidates=1000, seed=0)


@pytest.fixture(scope="module")
def classical_radius_one():
    return classical_step(classical_state(2), 1)


def test_criterion_1_normal_form_confluence():
    towers = [
        ExtensionTower(2),
        ExtensionTower(2).extend_free(),
        ExtensionTower(2).extend_free().extend_hnn(W("g0"), W("t1")),
    ]
    started = time.monotonic()
    total = 0
    mismatches = 0
    for idx, tower in enumerate(towers):
        rng = random.Random(1000 + idx)
        for _ in range(3500):
            w = oracles.random_word(rng, tower, 10)
            total += 1
            left = nf_word(britton_reduce(w, tower, "leftmost"), tower)
            right = nf_word(britton_reduce(w, tower, "rightmost"), tower)
            if left != right:
                mismatches += 1
    elapsed = time.monotonic() - started
    assert total >= 10_000
    assert mismatches == 0
    assert elapsed <= 60.0
    print(f"ACCEPTANCE 1 PASS: confluence on {total} words over {len(towers)} towers, "
          f"0 mismatches, {elapsed:.1f}s")


def test_criterion_2_relation_soundness(six_stage_state, classical_radius_one):
    towers = [
        six_stage_state.tower,
        classical_radius_one.tower,
        ExtensionTower(2).extend_hnn(W("g0"), W("g1")),
        ExtensionTower(2).extend_free().extend_hnn(W("g0"), W("t1 g0")),
    ]
    checked = 0
    for tower in towers:
        for step in tower.steps:
            if step.is_free:
                continue
            letter = stable(step.stage)
            assert nf_word(letter * step.source * letter.inverse(), tower) == nf_word(
                step.target, tower
            ), f"stage {step.stage}"
            checked += 1
    assert checked >= 18
    print(f"ACCEPTANCE 2 PASS: {checked} edge relations hold exactly across all stages")


def test_criterion_3_classical_construction(classical_radius_one):
    state = classical_radius_one
    assert len(state.pair_stage) == 16
    for (s, t), stage in state.pair_stage.items():
        letter = stable(stage)
        assert nf_word(letter * s * letter.inverse(), state.tower) == t
    witnesses = classical_centralizer_witnesses(state, W("g0"), 50)
    words = {w.word for w in witnesses}
    assert len(words) >= 50
    for w in words:
        assert commutes(w, W("g0"), state.tower)
    print(f"ACCEPTANCE 3 PASS: 16 registered pairs sound, {len(words)} distinct "
          f"centralizer witnesses for g0")


def test_criterion_4_tower_conditions(six_stage_state, six_stage_report):
    state, report = six_stage_state, six_stage_report
    # (i) growth at every stage: each fresh letter survives in its stage
    for s in range(1, state.tower.num_steps + 1):
        partial = state.tower.truncate(s)
        fresh = nf_word(stable(s), partial)
        assert fresh and max_stage(fresh) == s, f"stage {s}"
    assert report.growth_pass
    # (iii) centralizers: zero violations, at least 10^3 candidates each
    assert not any(v.startswith("centralizer") for v in report.violations)
    assert report.centralizer_results
    assert all(r["candidates"] >= 1000 for r in report.centralizer_results)
    # (iv) rigidity: zero violations
    assert not any(v.startswith("rigidity") for v in report.violations)
    assert report.rigidity_results
    # (ii) progress: nondecreasing seed-ball fraction
    fracs = [f[0] for f in state.fractions]
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))
    # undecided bounded by 1% of checks
    assert report.undecided <= max(1, report.checked // 100)
    print(f"ACCEPTANCE 4 PASS: 6 stages, growth at every stage, "
          f"{len(report.centralizer_results)} centralizer elements clean, "
          f"{len(report.rigidity_results)} rigidity elements clean, "
          f"fractions {fracs}, undecided {report.undecided}/{report.checked}")


def test_criterion_5_lemma_oracles():
    results = oracles.run_standard_suite(
        radius=3, power_bound=4, order_bound=5, sample_cap=4000, seed=0
    )
    lemmas = {v.lemma_id for _, v in results}
    assert lemmas == {"aabb", "dodatkowy", "cent", "cykr", "ip", "nn", "jsc", "torsion"}
    for name, verdict in results:
        assert verdict.is_ok, f"{verdict.lemma_id}@{name}: {verdict.outcome} {verdict.witnesses[:2]}"
    vacuous = sorted(f"{v.lemma_id}@{name}" for name, v in results if v.outcome == oracles.VACUOUS)
    print(f"ACCEPTANCE 5 PASS: all eight oracles green; vacuous passes: {vacuous}")


def test_criterion_6_field_kernel():
    started = time.monotonic()
    rng = random.Random(1234)
    per_degree = {}
    for n in range(2, 7):
        count = 0
        for _ in range(100):
            spec, alpha, beta = fieldext.random_instance(rng, n)
            prod = fieldext.explicit_inverse(alpha, spec) @ fieldext.mul_matrix(alpha, spec)
            assert prod.rows == fieldext.SquareMatrix.identity(n).rows
            assert fieldext.m_matrix(alpha, beta, spec).entry(n - 2, n - 1) == (
                fieldext.m_entry_formula(alpha, beta, spec)
            )
            count += 1
        per_degree[n] = count
    worked = fieldext.explicit_inverse(Fraction(1), fieldext.ExtFieldSpec((Fraction(1), Fraction(1))))
    assert worked.rows == (
        (Fraction(2), Fraction(-1)),
        (Fraction(-1), Fraction(1)),
    )
    for n in (2, 3, 4):
        spec, _, _ = fieldext.random_instance(random.Random(40 + n), n)
        assert not fieldext.m_entry_numerator_symbolic(spec).is_zero
        assert not fieldext.symbolic_denominator(spec).is_zero
    elapsed = time.monotonic() - started
    assert elapsed <= 30.0
    print(f"ACCEPTANCE 6 PASS: {per_degree} exact identities, worked instance "
          f"[[2,-1],[-1,1]], symbolic nonvanishing n=2..4, {elapsed:.1f}s")


def test_criterion_7_min_structures():
    started = time.monotonic()
    report_omega = minstruct.axiom_suite(minstruct.OMEGA, 8)
    assert report_omega.domain_size == 256
    assert report_omega.all_passed, [r.axiom for r in report_omega.results if not r.passed]
    report_i = minstruct.axiom_suite(minstruct.MODE_I, 8, z_copies=3, z_span=3)
    assert report_i.all_passed, [r.axiom for r in report_i.results if not r.passed]
    pairs, mismatches = minstruct.chain_cross_check(6)
    assert pairs > 0 and mismatches == 0
    assert minstruct.embedding_check(6)
    elapsed = time.monotonic() - started
    assert elapsed <= 30.0
    print(f"ACCEPTANCE 7 PASS: both axiom suites green (256-element domains), "
          f"{pairs} chain cross-checks, embedding bound 6, {elapsed:.1f}s")


def test_criterion_8_determinism():
    configs = [
        ["build", "--stages", "2", "--radius", "1", "--check-candidates", "60", "--seed", "5"],
        ["lemmas", "--radius", "2", "--cap", "2000", "--seed", "5"],
        ["field", "--cap", "10", "--seed", "5"],
        ["minstruct", "--bound", "5", "--support-bound", "4", "--embed-bound", "4"],
        ["classical", "--count", "8"],
        ["reduce", "g0 t1 t1^-1 g0^-1"],
    ]
    for argv in configs:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv + ["--format", "structured"])
            assert code == 0, argv
            outputs.append(buf.getvalue().encode())
        assert outputs[0] == outputs[1], argv
        json.loads(outputs[0])  # well-formed structured tree
    print(f"ACCEPTANCE 8 PASS: byte-identical structured reports for "
          f"{len(configs)} configurations")
