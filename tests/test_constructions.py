from dataclasses import replace

import pytest

from grouptower import constructions, oracles
from grouptower import tower as tower_module
from grouptower.cli import main
from grouptower.words import parse_word, stable, max_stage
from grouptower.tower import ExtensionTower, MembershipUndecided, ball_words, commutes, in_cyclic, nf_word
from grouptower.constructions import (
    InsufficientPairs,
    PreconditionViolated,
    QueueEntry,
    _candidate_pool,
    build_suite,
    check_conditions,
    classical_centralizer_witnesses,
    classical_state,
    classical_step,
    cyclic_key,
    initial_state,
    run_construction,
    tower_step,
    z_witness,
)

W = parse_word


@pytest.fixture(scope="module")
def two_stage():
    return run_construction(2, radius=2, power_bound=4)


def reference_rigidity(state):
    """The rigidity probe with two normal forms per tuple: ``w y^m`` grown
    one power at a time, then conjugated back by ``w^-1``.  Returns the
    rigidity row's details and witnesses, and the tuples checked."""
    tower = state.tower
    ball = ball_words(tower, state.radius)
    elements, checked, undecided, witnesses = 0, 0, 0, []
    for y in ball:
        if not y or state.ledger.contains(y, tower):
            continue
        elements += 1
        z = z_witness(y, state)
        bad = []
        for w in ball:
            acc = w
            for m in range(1, state.power_bound + 1):
                checked += 1
                try:
                    acc = nf_word(acc * y, tower)
                    conj = nf_word(acc * w.inverse(), tower)
                    if in_cyclic(conj, z, tower) is not None and in_cyclic(w, z, tower) is None:
                        bad.append(f"rigidity:{y}|{w}|{m}")
                except MembershipUndecided:
                    undecided += 1
        witnesses.extend(bad[:4])
    return {"elements": elements, "undecided": undecided}, tuple(witnesses), checked


def reference_centralizers(state, candidates, seed):
    """The centralizer probe as a plain loop: pool words at the top stage
    whose two products with a ledger element y are equal.  Returns the
    centralizer row's details and witnesses."""
    tower = state.tower
    top = tower.num_steps
    pool = _candidate_pool(state, candidates, seed)
    elements, witnesses = 0, []
    for y in ball_words(tower, state.radius):
        if not y or not state.ledger.contains(y, tower):
            continue
        elements += 1
        bad = [
            f"centralizer:{y}:{k}"
            for k in pool
            if max_stage(nf_word(k, tower)) == top and nf_word(k * y, tower) == nf_word(y * k, tower)
        ]
        witnesses.extend(bad[:4])
    details = {"elements": elements, "candidates_per_element": len(pool) if elements else 0, "undecided": 0}
    return details, tuple(witnesses)


def rows(report):
    return {c.check_id: c for c in report.checks}


def hnn_state(source, target, radius, power_bound=4):
    """The seed state at ``radius`` with one step ``t1 source t1^-1 = target``."""
    seed_state = initial_state(radius=radius, power_bound=power_bound)
    return replace(seed_state, tower=ExtensionTower(2).extend_hnn(W(source), W(target)))


class TestLedger:
    def test_seeded_with_powers_and_inverses(self):
        state = initial_state(radius=2, power_bound=4)
        for n in (1, 2, -1, -2):
            assert state.ledger.contains(W("g0") ** n, state.tower)
        assert not state.ledger.contains(W("g1"), state.tower)

    def test_closed_under_ball_conjugation(self):
        state = run_construction(2, radius=2, power_bound=4)
        tower = state.tower
        from grouptower.tower import ball_words

        for y in [w for w in ball_words(tower, 2) if w][:40]:
            if state.ledger.contains(y, tower):
                for b in [w for w in ball_words(tower, 1) if w]:
                    assert state.ledger.contains(nf_word(b * y * b.inverse(), tower), tower)

    def test_certificates_replay(self, six_stage):
        assert six_stage.ledger.verify(six_stage.tower)

    def test_a_conjugate_of_a_certified_element_adds_no_entry(self):
        # g1 g0 g1^-1 has the cyclic key of g0
        state = initial_state(radius=1, power_bound=2)
        ledger = state.ledger
        assert ledger.with_element(W("g1 g0 g1^-1"), W("g1"), 1, state.tower) is ledger

    def test_rejects_wrong_certificate(self):
        state = initial_state(radius=1, power_bound=2)
        with pytest.raises(ValueError):
            state.ledger.with_element(W("g1"), W("e"), 1, state.tower)

    def test_cyclic_key_is_rotation_invariant(self):
        state = initial_state(radius=1, power_bound=2)
        a, _ = cyclic_key(W("g0 g1"), state.tower)
        b, _ = cyclic_key(W("g1 g0"), state.tower)
        assert a == b


class TestTowerStep:
    def test_odd_steps_are_free(self):
        state = initial_state(radius=1, power_bound=2)
        state = tower_step(state)
        assert state.tower.steps[-1].is_free

    def test_even_step_conjugates_x_to_scheduled_witness(self):
        state = tower_step(tower_step(initial_state(radius=2, power_bound=4)))
        step = state.tower.steps[-1]
        assert not step.is_free
        t = stable(state.tower.num_steps)
        assert nf_word(t * W("g0") * t.inverse(), state.tower) == nf_word(step.target, state.tower)

    def test_even_step_merges_witness_powers(self):
        state = tower_step(tower_step(initial_state(radius=2, power_bound=4)))
        z = state.consumed[-1][1]
        for n in (1, 2, 3, -1):
            assert state.ledger.contains(nf_word(z ** n, state.tower), state.tower)

    def test_schedule_prefers_oldest_shortest_witness(self):
        state = initial_state(radius=2, power_bound=4)
        assert [str(e.witness) for e in state.z_queue[:2]] == ["g1", "g1^-1"]
        state = tower_step(tower_step(state))
        assert str(state.consumed[0][1]) == "g1"

    def test_inverse_witness_skipped_after_merge(self, six_stage):
        # g1^-1 entered the queue but became ledgered when g1 was consumed
        consumed = [str(z) for _, z in six_stage.consumed]
        assert "g1" in consumed and "g1^-1" not in consumed

    def test_fractions_grow_monotonically(self, six_stage):
        fracs = [f[0] for f in six_stage.fractions]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == 1.0

    def test_an_even_step_with_only_ledgered_witnesses_is_free(self):
        state = tower_step(initial_state(radius=1, power_bound=2))
        square = nf_word(W("g0^2"), state.tower)
        queued = QueueEntry(0, square, cyclic_key(square, state.tower)[0])
        state = tower_step(replace(state, z_queue=(queued,)))
        assert state.tower.steps[-1].is_free
        assert state.consumed == () and state.z_queue[0] == queued

    def test_a_step_reduces_only_the_ball_elements_with_its_letter(self, six_stage):
        # cyclic reductions live at their argument's stage, so the earlier
        # ball elements are reduced already; 68 radius-2 elements involve t7
        misses = tower_module.cyclically_reduce.cache_info().misses
        tower_step(six_stage)
        assert tower_module.cyclically_reduce.cache_info().misses - misses <= 68

    def test_classical_seed_mode(self):
        state = initial_state(radius=1, power_bound=2, g0_mode="classical")
        assert state.base_steps == 16
        state = tower_step(state)
        assert state.tower.num_steps == 17
        assert state.stage == 1

    def test_schedule_fairness(self):
        # consumed witnesses come oldest-creation-first among the eligible
        state = initial_state(radius=1, power_bound=2)
        created = {e.key: e.creation_stage for e in state.z_queue}
        for _ in range(8):
            state = tower_step(state)
            created.update({e.key: e.creation_stage for e in state.z_queue})
        stages = [created[cyclic_key(z, state.tower)[0]] for _, z in state.consumed]
        assert stages == sorted(stages)
        assert len(state.consumed) >= 3


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the ledger keys witnesses by rotation class, not by conjugacy class")
def test_no_step_conjugates_x_onto_a_conjugate_of_an_earlier_witness():
    # the default schedule: step 20 takes g0 t2, and step 26 takes
    # g1 t2 = g0^-1 (g0 t2) g0, because t2 g0 t2^-1 = g1
    state = initial_state()
    found = []
    for _ in range(26):
        before, state = state, tower_step(state)
        if state.consumed == before.consumed:
            continue
        step, z = state.consumed[-1]
        tower = before.tower
        found += [
            (step, str(b), str(earlier))
            for _, earlier in before.consumed
            for b in ball_words(tower, 1)
            if nf_word(b * earlier * b.inverse(), tower) == z
        ]
    assert found == []


class TestZWitness:
    def test_power_in_free_product(self):
        state = tower_step(initial_state(radius=2, power_bound=4))
        y = nf_word(W("t1 g0") ** 2, state.tower)
        assert z_witness(y, state) == W("t1 g0")

    def test_base_power_uses_period_extraction(self):
        state = initial_state(radius=2, power_bound=4)
        assert z_witness(W("g1^3"), state) == W("g1")

    def test_ledgered_element_rejected(self):
        state = initial_state(radius=2, power_bound=4)
        with pytest.raises(PreconditionViolated):
            z_witness(W("g0^2"), state)

    def test_witness_is_stable_across_stages(self):
        state = tower_step(initial_state(radius=2, power_bound=4))
        y = nf_word(W("t1") ** 2, state.tower)
        first = z_witness(y, state)
        later = tower_step(state)
        if not later.ledger.contains(y, later.tower):
            assert z_witness(y, later) == first


class TestConditionChecks:
    def test_requires_at_least_one_step(self):
        with pytest.raises(PreconditionViolated):
            check_conditions(initial_state(radius=1, power_bound=2))

    def test_rigidity_matches_two_normal_form_loop(self, two_stage):
        report = check_conditions(two_stage, min_centralizer_candidates=20, seed=0)
        details, witnesses, checked = reference_rigidity(two_stage)
        rigidity, centralizers = rows(report)["condition-rigidity"], rows(report)["condition-centralizers"]
        assert rigidity.details == details
        assert rigidity.witnesses == witnesses
        c = centralizers.details
        assert report.checked == c["elements"] * c["candidates_per_element"] + checked
        assert report.undecided == c["undecided"] + details["undecided"]

    def test_rigidity_counterexamples_match_two_normal_form_loop(self):
        # over the classical seed group 18 of the 36 outside elements have
        # counterexamples, up to 32 each, so the row's 72 witnesses exercise
        # the witness text and the cap of four per element
        state = tower_step(initial_state(radius=1, power_bound=4, g0_mode="classical"))
        rigidity = rows(check_conditions(state, min_centralizer_candidates=10))["condition-rigidity"]
        details, witnesses, _ = reference_rigidity(state)
        assert rigidity.verdict == "counterexample" and len(witnesses) == 72
        assert rigidity.details == details
        assert rigidity.witnesses == witnesses

    @pytest.mark.parametrize(
        "case", ["two_stage", "hnn_g0_g0", "hnn_g0_g0_radius_2", "hnn_g0sq_g0sq_radius_2"]
    )
    def test_centralizers_match_plain_loop(self, case, two_stage):
        if case == "two_stage":
            state, candidates = two_stage, 200
        elif case == "hnn_g0_g0":
            # t1 g0 t1^-1 = g0: t1 centralizes every power of g0
            state, candidates = hnn_state("g0", "g0", 1, power_bound=2), 30
        elif case == "hnn_g0_g0_radius_2":
            # t1 commutes with g0 and with its square g0^2, a ledger ball element
            state, candidates = hnn_state("g0", "g0", 2), 30
        else:
            # t1 commutes with g0^2 but not with g0
            state, candidates = hnn_state("g0^2", "g0^2", 2), 30
        centralizers = rows(check_conditions(state, candidates, seed=0))["condition-centralizers"]
        details, witnesses = reference_centralizers(state, candidates, 0)
        assert centralizers.details == details
        assert centralizers.witnesses == witnesses
        if case == "hnn_g0_g0":
            assert len(witnesses) == 8 and "centralizer:g0:t1" in witnesses
        if case == "hnn_g0_g0_radius_2":
            assert {"centralizer:g0:t1", "centralizer:g0^2:t1"} <= set(witnesses)
        if case == "hnn_g0sq_g0sq_radius_2":
            assert "centralizer:g0^2:t1" in witnesses and "centralizer:g0:t1" not in witnesses

    @pytest.mark.parametrize(
        "source, target, radius", [("g1^2", "g1^3", 1), ("g1^2", "g1^3", 2), ("g0^2", "g0^2", 2)]
    )
    def test_rigidity_matches_two_normal_form_loop_on_hnn_towers(self, source, target, radius):
        state = hnn_state(source, target, radius)
        rigidity = rows(check_conditions(state, 30, seed=0))["condition-rigidity"]
        details, witnesses, _ = reference_rigidity(state)
        assert rigidity.details == details
        assert rigidity.witnesses == witnesses
        if source == "g1^2":
            # t1 g1^2 t1^-1 = g1^3: the premise holds at g1^2 and g1^4, not at g1
            assert {"rigidity:g1|t1|2", "rigidity:g1|t1|4"} <= set(witnesses)
            assert "rigidity:g1|t1|1" not in witnesses

    @pytest.mark.parametrize(
        # the premises each case decides by commutation
        "case, decided",
        [("two_stage", 2880), ("six_stage", 59472),
         (("g1^2", "g1^3", 1), 12), (("g1^2", "g1^3", 2), 1008), (("g0^2", "g0^2", 2), 1192)],
    )
    def test_commutation_premises_match_membership(self, case, decided, two_stage, six_stage, monkeypatch):
        # for y nonzero in H1(G; Q) the premise w y^n w^-1 in <z> is decided
        # as w y^n == y^n w; every such verdict must be the membership one
        state = {"two_stage": two_stage, "six_stage": six_stage}.get(case) or hnn_state(*case)
        tower = state.tower
        scans = []
        original = constructions._scan_hits

        def recording(lemma_id, groups, per_group, hits_of, predicate, checked=0):
            scans.append(hits_of.args)
            return original(lemma_id, groups, per_group, hits_of, predicate, checked)

        monkeypatch.setattr(constructions, "_scan_hits", recording)
        check_conditions(state, 20, seed=0)
        # y and y^-1 share a premise table, and w y^-n w^-1 = (w y^n w^-1)^-1
        tables = {id(premises): (z, premises, powers) for z, by_commutation, premises, powers, _ in reversed(scans)
                  if by_commutation}
        count = 0
        for z, premises, powers in tables.values():
            for (v, n), verdict in premises.items():
                conj = nf_word(v * powers[n - 1] * v.inverse(), tower)
                assert verdict == (tower_module._member_nf(conj, z, tower) is not None), (str(v), str(powers[0]), n)
                count += 1
        assert count >= decided

    def test_zero_image_premises_go_through_membership(self, monkeypatch):
        # t1 g1^2 t1^-1 = g1^3: g1 is zero in H1(G; Q), and t1 g1^2 t1^-1 lies
        # in <g1> although t1 does not commute with g1^2
        state = hnn_state("g1^2", "g1^3", 1)
        tower = state.tower
        assert not tower_module._nonzero_rational_image(tower)(W("g1"))
        assert not commutes(W("t1"), W("g1^2"), tower)
        calls = []
        original = constructions._member_nf

        def recording(w, gen, tower_):
            calls.append((w, gen))
            return original(w, gen, tower_)

        monkeypatch.setattr(constructions, "_member_nf", recording)
        rigidity = rows(check_conditions(state, 30, seed=0))["condition-rigidity"]
        assert (W("g1^3"), W("g1")) in calls
        assert rigidity.verdict == "counterexample" and "rigidity:g1|t1|2" in rigidity.witnesses

    def test_membership_tests_at_the_build_configuration(self, two_stage, monkeypatch):
        # premises of elements nonzero in H1(G; Q) are commutation tests, so
        # membership is tested for the other premises and the conclusions
        # only: 2,364 calls when every premise was a membership test
        calls = []
        original = constructions._member_nf

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(constructions, "_member_nf", counted)
        check_conditions(two_stage, 1000, seed=1001)
        assert len(calls) <= 300

    def test_shared_verdicts_cut_products_and_commutation_tests(self, two_stage, monkeypatch):
        # one verdict per inverse pair, a premise failure at a multiple of m
        # read as one at m, and the squares of ledger elements: the parent's
        # per-tuple loops made 5,264 commutation tests and 25,376 products,
        # the shared verdicts 6,032 products.  Britton's lemma decides 832
        # premises from the last segment of w, without the two products of
        # each conjugate by w (the helper's own products are not counted)
        calls = {"commutes": 0, "_nf_product": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(constructions, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(constructions, name, counted)
        check_conditions(two_stage, 1000, seed=1001)
        assert calls["commutes"] <= 5264 // 4
        assert calls["_nf_product"] <= 4368

    def test_raise_outside_a_predicate_stops_build(self, two_stage, monkeypatch, capsys):
        # the powers of y are normal-formed outside the scan driver, so a
        # raise there is a defect: the run stops instead of counting tuples
        tower = two_stage.tower
        ball = ball_words(tower, two_stage.radius)
        # y^2 is longer than any ball word, so only the rigidity loop asks for it
        y = next(
            w for w in ball if (w ** 2).unit_length > two_stage.radius and not two_stage.ledger.contains(w, tower)
        )
        original_nf = constructions._nf

        def nf_undecided_at_square(word, tower_):
            if word == y ** 2:
                raise MembershipUndecided(f"{word} marked undecided")
            return original_nf(word, tower_)

        monkeypatch.setattr(constructions, "_nf", nf_undecided_at_square)
        argv = ["build", "--stages", "2", "--radius", "2", "--power-bound", "4", "--check-candidates", "20",
                "--format", "structured"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {y ** 2} marked undecided\n"

    def test_undecided_witness_counts_its_tuples(self, monkeypatch):
        # an element whose witness is undecided stays in the rigidity row:
        # all len(ball) * power_bound of its tuples are checked and undecided
        state = tower_step(initial_state(radius=1, power_bound=4))
        ball = ball_words(state.tower, state.radius)
        elements = rows(check_conditions(state, 20))["condition-rigidity"].details["elements"]
        original = constructions.z_witness

        def undecided_at_g1(y, state_):
            if y == W("g1"):
                raise MembershipUndecided("g1 marked undecided")
            return original(y, state_)

        monkeypatch.setattr(constructions, "z_witness", undecided_at_g1)
        report = check_conditions(state, 20)
        rigidity = rows(report)["condition-rigidity"].details
        assert rigidity == {"elements": elements, "undecided": len(ball) * 4}
        assert report.undecided == sum(c.details.get("undecided", 0) for c in report.checks)
        assert build_suite(1, 1, 4, "free", 20, 0).undecided_total == len(ball) * 4

    def test_raised_premise_is_not_shared_with_the_inverse(self, two_stage, monkeypatch):
        # y and y^-1 share premise verdicts, but a raise is never stored:
        # the tuples of y^-1 with the same w test again and count again
        tower = two_stage.tower
        ball = ball_words(tower, two_stage.radius)
        y = next(
            w for w in ball if (w ** 2).unit_length > two_stage.radius and not two_stage.ledger.contains(w, tower)
        )
        w = next(v for v in ball if v.unit_length == 2 and v not in (y, nf_word(y.inverse(), tower)))
        powers = {nf_word(y ** n, tower) for n in range(-4, 5) if n}
        original = constructions._nf_product

        def undecided_at_w(a, b, tower_):
            if a == w and b in powers:
                raise MembershipUndecided(f"{a} {b} marked undecided")
            return original(a, b, tower_)

        monkeypatch.setattr(constructions, "_nf_product", undecided_at_w)
        report = check_conditions(two_stage, min_centralizer_candidates=20, seed=0)
        assert rows(report)["condition-rigidity"].details["undecided"] == 2 * two_stage.power_bound
        assert report.undecided == 2 * two_stage.power_bound


class TestRigidityHits:
    """The rigidity row hands the scan only the premise hits of each element,
    and counts the other tuples by arithmetic."""

    @staticmethod
    def record_streams(monkeypatch):
        streams = []
        original = oracles._scan

        def recording(lemma_id, tuples, predicate, checked=0):
            tuples = list(tuples)
            verdict = original(lemma_id, tuples, predicate, checked)
            if lemma_id == "condition-rigidity":
                streams.append((tuples, verdict))
            return verdict

        monkeypatch.setattr(oracles, "_scan", recording)
        return streams

    @pytest.mark.parametrize("case", ["two_stage", "classical"])
    def test_streams_hold_only_premise_hits(self, case, two_stage, monkeypatch):
        if case == "two_stage":
            state = two_stage
        else:
            state = tower_step(initial_state(radius=1, power_bound=4, g0_mode="classical"))
        streams = self.record_streams(monkeypatch)
        report = check_conditions(state, 20, seed=0)
        tower = state.tower
        ball = ball_words(tower, state.radius)
        outside = [y for y in ball if y and not state.ledger.contains(y, tower)]
        assert len(streams) == len(outside) == rows(report)["condition-rigidity"].details["elements"]
        for tuples, verdict in streams:
            assert len(tuples) == verdict.premise_hits + verdict.undecided
            assert verdict.checked == len(ball) * state.power_bound
        assert sum(v.premise_hits for _, v in streams) > 0
        if case == "classical":
            # the streamed tuples are exactly those meeting the premise, in order
            for y, (tuples, _) in zip(outside, streams):
                z = z_witness(y, state)
                expected = [
                    (w, m)
                    for w in ball
                    for m in range(1, state.power_bound + 1)
                    if in_cyclic(nf_word(w * y ** m * w.inverse(), tower), z, tower) is not None
                ]
                assert tuples == expected

    def test_raised_britton_test_is_counted_per_tuple_and_not_stored(self, two_stage, monkeypatch):
        # a raise while deciding a premise by Britton's lemma streams its
        # tuple, so the scan raises again and counts it; nothing is stored,
        # so y^-1 tests again and counts again: 2 * power_bound undecided
        tower = two_stage.tower
        top = tower.num_steps
        ball = ball_words(tower, two_stage.radius)
        y = next(
            v for v in ball
            if v and max_stage(v) < top and not two_stage.ledger.contains(v, tower)
            and max_stage(z_witness(v, two_stage)) < top
        )
        w = next(v for v in ball if max_stage(v) == top)
        powers = {nf_word(y ** n, tower) for n in range(-4, 5) if n}
        clean = check_conditions(two_stage, min_centralizer_candidates=20, seed=0)
        original = constructions._conjugate_pinches

        def undecided_at_w(w_, g, tower_):
            if w_ == w and g in powers:
                raise MembershipUndecided(f"{w_} {g} marked undecided")
            return original(w_, g, tower_)

        monkeypatch.setattr(constructions, "_conjugate_pinches", undecided_at_w)
        streams = self.record_streams(monkeypatch)
        report = check_conditions(two_stage, min_centralizer_candidates=20, seed=0)
        rigidity = rows(report)["condition-rigidity"]
        assert rigidity.details["undecided"] == 2 * two_stage.power_bound
        assert report.undecided == 2 * two_stage.power_bound
        assert rigidity.witnesses == rows(clean)["condition-rigidity"].witnesses
        assert report.checked == clean.checked
        for tuples, verdict in streams:
            assert len(tuples) == verdict.premise_hits + verdict.undecided


class TestClassical:
    def test_radius_one_registers_sixteen_pairs(self):
        state = classical_step(classical_state(), 1)
        assert len(state.pair_stage) == 16
        assert state.tower.num_steps == 16

    def test_radius_zero_is_noop(self):
        state = classical_step(classical_state(), 0)
        assert state.tower.num_steps == 0

    def test_every_pair_relation_holds(self):
        state = classical_step(classical_state(), 1)
        for (s, t), stage in state.pair_stage.items():
            letter = stable(stage)
            assert nf_word(letter * s * letter.inverse(), state.tower) == t

    def test_witnesses_commute_and_are_distinct(self):
        wits, state = classical_centralizer_witnesses(classical_step(classical_state(), 1), W("g0"), 20)
        assert len(wits) == 20
        for w in wits:
            assert commutes(w, W("g0"), state.tower)
            assert max_stage(w) > 0

    def test_witness_search_leaves_input_state_unchanged(self):
        state = classical_step(classical_state(), 1)
        pairs = dict(state.pair_stage)
        _, grown = classical_centralizer_witnesses(state, W("g0"), 20)
        assert state.tower.num_steps == 16
        assert state.pair_stage == pairs
        assert grown.tower.num_steps > 16
        assert len(grown.pair_stage) == grown.tower.num_steps

    def test_count_must_be_positive(self):
        state = classical_step(classical_state(), 1)
        with pytest.raises(PreconditionViolated):
            classical_centralizer_witnesses(state, W("g0"), 0)

    def test_nonbase_element_rejected(self):
        state = classical_step(classical_state(), 1)
        with pytest.raises(PreconditionViolated):
            classical_centralizer_witnesses(state, W("t1"), 1)

    def test_insufficient_pairs_raises(self):
        state = classical_step(classical_state(), 1)
        with pytest.raises(InsufficientPairs):
            classical_centralizer_witnesses(state, W("g0"), 10_000, max_radius=1)
