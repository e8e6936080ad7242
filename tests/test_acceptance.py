"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the assertions are identical either way.
"""
import io
import json
import random
import time
from contextlib import redirect_stdout

import pytest

from grouptower.words import parse_word, stable, max_stage
from grouptower import cli, fieldext, minstruct, oracles
from grouptower.constructions import (
    build_suite,
    classical_state,
    classical_step,
    classical_suite,
)
from grouptower.tower import ExtensionTower, britton_reduce, nf_word

W = parse_word


@pytest.fixture(scope="module")
def six_stage_report():
    return build_suite(6, 2, 4, 1000, 0)


@pytest.fixture(scope="module")
def classical_radius_one():
    return classical_step(classical_state(), 1)


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


def test_criterion_2_relation_soundness(six_stage, classical_radius_one):
    towers = [
        six_stage.tower,
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


def test_criterion_3_classical_construction():
    report = classical_suite(1, 50, "g0")
    assert all(c.verdict == "pass" for c in report.checks), report.to_text()
    details = {c.check_id: c.details for c in report.checks}
    assert details["pair-relations"]["pairs"] == details["pair-relations"]["sound"] == 16
    distinct = details["centralizer-witnesses"]["distinct"]
    assert distinct >= 50
    print(f"ACCEPTANCE 3 PASS: 16 registered pairs sound, {distinct} distinct "
          f"centralizer witnesses for g0")


def test_criterion_4_tower_conditions(six_stage, six_stage_report):
    state, report = six_stage, six_stage_report
    # (i) growth at every stage: each fresh letter survives in its stage
    for s in range(1, state.tower.num_steps + 1):
        partial = state.tower.truncate(s)
        fresh = nf_word(stable(s), partial)
        assert fresh and max_stage(fresh) == s, f"stage {s}"
    # growth of the last stage, (ii) progress: nondecreasing seed-ball
    # fraction, (iii) centralizers and (iv) rigidity: zero counterexamples
    assert all(c.verdict in ("ok", "pass") for c in report.checks), report.to_text()
    assert [c.check_id for c in report.checks[-4:]] == [
        "condition-growth", "condition-centralizers", "condition-rigidity", "condition-progress"
    ]
    rows = {c.check_id: c.details for c in report.checks}
    centralizers, rigidity = rows["condition-centralizers"], rows["condition-rigidity"]
    # at least 10^3 candidates per centralizer element
    assert centralizers["candidates_per_element"] >= 1000
    assert centralizers["elements"] > 0 and rigidity["elements"] > 0
    # undecided bounded by 1% of the centralizer checks alone
    checked = centralizers["elements"] * centralizers["candidates_per_element"]
    assert report.undecided_total <= max(1, checked // 100)
    fracs = rows["condition-progress"]["seed_ball_fractions"]
    print(f"ACCEPTANCE 4 PASS: 6 stages, growth at every stage, "
          f"{centralizers['elements']} centralizer elements clean, "
          f"{rigidity['elements']} rigidity elements clean, "
          f"fractions {fracs}, undecided {report.undecided_total}")


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
    report = fieldext.field_suite(100, 1234)
    elapsed = time.monotonic() - started
    assert all(c.verdict == "pass" for c in report.checks), report.to_text()
    details = {c.check_id: c.details for c in report.checks}
    per_degree = {n: details[f"identities-n{n}"]["instances"] for n in range(2, 7)}
    assert per_degree == {n: 100 for n in range(2, 7)}
    assert "worked-instance" in details
    assert all(f"symbolic-nonvanishing-n{n}" in details for n in (2, 3, 4))
    assert elapsed <= 30.0
    print(f"ACCEPTANCE 6 PASS: {per_degree} exact identities, worked instance "
          f"[[2,-1],[-1,1]], symbolic nonvanishing n=2..4, {elapsed:.1f}s")


def test_criterion_7_min_structures():
    started = time.monotonic()
    for mode in (minstruct.OMEGA, minstruct.MODE_I):
        assert len(minstruct.elements_over(mode, minstruct.domain_points(mode, 8))) == 256
    report = minstruct.minstruct_suite(8, 6, 6)
    elapsed = time.monotonic() - started
    assert len(report.checks) == 16
    assert all(c.verdict == "pass" for c in report.checks), report.to_text()
    pairs = next(c.details["pairs"] for c in report.checks if c.check_id == "chain-cross-check")
    assert pairs > 0
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
