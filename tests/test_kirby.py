"""Framed-link moves, replay semantics, and the family script generator."""

import json
import random
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brieskorn import (
    FramedLink,
    IntMatrix,
    blow_down,
    blow_up,
    brieskorn_plumbing,
    determinant,
    plumbing_to_link,
    replay,
    script_from_json,
    script_generator,
    script_to_json,
    slide,
    validate_triple,
)
from brieskorn.errors import (
    DuplicateLabel,
    FinalMismatch,
    IllegalBlowdown,
    SameComponent,
    ScriptFormatError,
    StepIllegal,
    UnsupportedFamily,
)
from brieskorn.kirby import (
    SCRIPTED_FAMILIES,
    Blowdown,
    Blowup,
    KirbyScript,
    Slide,
    _find_minus_one_slide,
    apply_move,
)
from brieskorn.plumbing import PlumbingGraph, _bareiss_determinant
from dense_oracle import _sylvester_inertia


def L(labels, rows):
    return FramedLink(tuple(labels), IntMatrix.from_rows(rows))


def random_symmetric(rng, n, lo=-9, hi=9):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return rows


class TestPlumbingToLink:
    def test_single_vertex(self):
        link = plumbing_to_link(PlumbingGraph((-1,), ()))
        assert link.labels == ("v0",)
        assert link.matrix.entries == ((-1,),)

    @pytest.mark.parametrize(
        "edges",
        [
            ((0, 1), (1, 2), (1, 3), (1, 4)),  # the star's center is vertex 1
            ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5)),  # a second branch vertex
            ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)),  # a chain
        ],
    )
    def test_other_trees_get_plain_labels(self, edges):
        n = len(edges) + 1
        link = plumbing_to_link(PlumbingGraph((-2,) * n, edges))
        assert link.labels == tuple(f"v{i}" for i in range(n))

    def test_sigma_2_7_19_matches_intersection_matrix(self):
        from brieskorn import intersection_matrix

        g = brieskorn_plumbing(validate_triple(2, 7, 19))
        link = plumbing_to_link(g)
        assert link.size == 6
        assert link.matrix == intersection_matrix(g)
        assert link.labels == ("v0", "L1-1", "L2-1", "L2-2", "L3-1", "L3-2")

    def test_e8_star_labels(self):
        g = brieskorn_plumbing(validate_triple(2, 3, 5))
        link = plumbing_to_link(g)
        assert link.labels == (
            "v0",
            "L1-1",
            "L2-1",
            "L2-2",
            "L3-1",
            "L3-2",
            "L3-3",
            "L3-4",
        )


class TestBlowDown:
    def test_single_component(self):
        link = blow_down(L(["a"], [[-1]]), "a")
        assert link.size == 0 and link.matrix.n == 0

    def test_two_component_example(self):
        link = blow_down(L(["a", "b"], [[-1, 1], [1, -2]]), "a")
        assert link.labels == ("b",)
        assert link.matrix.entries == ((-1,),)

    def test_illegal_framing(self):
        with pytest.raises(IllegalBlowdown):
            blow_down(L(["a", "b"], [[-2, 1], [1, -2]]), "a")

    def test_determinant_identity_random(self):
        rng = random.Random(123)
        for _ in range(300):
            n = rng.randint(1, 8)
            rows = random_symmetric(rng, n)
            c = rng.randrange(n)
            eps = rng.choice([1, -1])
            rows[c][c] = eps
            link = L([f"c{i}" for i in range(n)], rows)
            before = determinant(link.matrix)
            after = determinant(blow_down(link, f"c{c}").matrix)
            assert before == eps * after


class TestSlide:
    def test_formula_example(self):
        link = slide(L(["a", "b"], [[-1, 0], [0, -1]]), "a", "b", 1)
        assert link.matrix.entries == ((-2, -1), (-1, -1))

    def test_same_component_rejected(self):
        with pytest.raises(SameComponent):
            slide(L(["a", "b"], [[-1, 0], [0, -1]]), "a", "a", 1)

    def test_slide_then_inverse_is_identity(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 6)
            link = L([f"c{i}" for i in range(n)], random_symmetric(rng, n))
            i, j = rng.sample(range(n), 2)
            s = rng.choice([1, -1])
            back = slide(slide(link, f"c{i}", f"c{j}", s), f"c{i}", f"c{j}", -s)
            assert back == link

    @settings(deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10**6), st.sampled_from([1, -1]))
    def test_congruence_invariants(self, n, seed, s):
        rng = random.Random(seed)
        link = L([f"c{i}" for i in range(n)], random_symmetric(rng, n, -5, 5))
        i, j = rng.sample(range(n), 2)
        after = slide(link, f"c{i}", f"c{j}", s)
        assert determinant(after.matrix) == determinant(link.matrix)
        assert _sylvester_inertia(after.matrix) == _sylvester_inertia(link.matrix)


class TestBlowUp:
    def test_on_empty(self):
        link = blow_up(L([], []), -1, [], "e")
        assert link.labels == ("e",)
        assert link.matrix.entries == ((-1,),)

    def test_inverse_of_blow_down_when_unlinked(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(0, 5)
            link = L([f"c{i}" for i in range(n)], random_symmetric(rng, n))
            sign = rng.choice([1, -1])
            up = blow_up(link, sign, [0] * n, "new")
            assert determinant(up.matrix) == sign * determinant(link.matrix)
            assert blow_down(up, "new") == link

    def test_blow_down_inverts_linked_blow_up_via_schur(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(1, 5)
            link = L([f"c{i}" for i in range(n)], random_symmetric(rng, n))
            sign = rng.choice([1, -1])
            v = [rng.randint(-3, 3) for _ in range(n)]
            up = blow_up(link, sign, v, "new")
            down = blow_down(up, "new")
            m = link.matrix.entries
            expected = [
                [m[i][j] - sign * v[i] * v[j] for j in range(n)] for i in range(n)
            ]
            assert down.matrix.entries == tuple(tuple(r) for r in expected)

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            blow_up(L(["a"], [[-1]]), 1, [0], "a")

    def test_wrong_linking_length(self):
        with pytest.raises(ValueError):
            blow_up(L(["a"], [[-1]]), 1, [0, 0], "b")


class TestReplay:
    def test_empty_moves_success(self):
        link = L(["a"], [[-1]])
        script = KirbyScript("id", link, (), link)
        trace = replay(script)
        assert trace.final == link
        assert trace.steps == ()

    def test_trace_records_step_det_legal(self):
        script = KirbyScript(
            "demo",
            L(["a", "b"], [[-1, 1], [1, -2]]),
            (Blowdown("a"),),
            L(["b"], [[-1]]),
        )
        trace = replay(script)
        assert [s.to_json_obj() for s in trace.steps] == [
            {"step": 1, "op": "blowdown:a", "det": -1, "legal": True}
        ]

    def test_final_mismatch(self):
        script = KirbyScript(
            "bad",
            L(["a", "b"], [[-1, 1], [1, -2]]),
            (Blowdown("a"),),
            L(["b"], [[-2]]),
        )
        with pytest.raises(FinalMismatch) as err:
            replay(script)
        assert "expected -2, got -1" in str(err.value)

    def test_step_illegal(self):
        script = KirbyScript(
            "illegal",
            L(["a", "b"], [[-3, 1], [1, -2]]),
            (Blowdown("a"),),
            L(["b"], [[-2]]),
        )
        with pytest.raises(StepIllegal) as err:
            replay(script)
        assert err.value.index == 0

    def test_missing_component_is_illegal(self):
        script = KirbyScript(
            "missing",
            L(["a"], [[-1]]),
            (Blowdown("zz"),),
            L(["a"], [[-1]]),
        )
        with pytest.raises(StepIllegal):
            replay(script)


class TestScriptJson:
    def test_round_trip(self):
        script = script_generator("thm1-even2", 2)
        text = script_to_json(script)
        parsed = script_from_json(text)
        assert parsed == script
        obj = json.loads(text)
        assert set(obj) == {"name", "initial", "moves", "expect", "annotations"}
        ops = {mv["op"] for mv in obj["moves"]}
        assert ops <= {"blowdown", "slide", "blowup"}

    def test_truncated_json(self):
        with pytest.raises(ScriptFormatError):
            script_from_json('{"name": "x", "initial"')

    def test_malformed_script_object(self):
        with pytest.raises(ScriptFormatError):
            script_from_json('{"name": "x"}')
        with pytest.raises(ScriptFormatError):
            script_from_json(
                '{"name":"x","initial":{"labels":["a"],"matrix":[[-1]]},'
                '"moves":[{"op":"warp"}],"expect":{"labels":[],"matrix":[]}}'
            )


class TestScriptGenerator:
    def test_base_case_sigma_2_7_19(self):
        script = script_generator("thm1-even2", 1)
        trace = replay(script)
        assert trace.final.labels == ("K", "m")
        assert trace.final.matrix.entries == ((0, 1), (1, -1))
        assert all(abs(step.det) == 1 for step in trace.steps)

    def test_stage_structure_grows_with_n(self):
        # n-1 reduction stages of one chain blow-down each, on top of the base
        base = len(script_generator("thm1-even2", 1).moves)
        for n in (2, 3, 5):
            assert len(script_generator("thm1-even2", n).moves) == base + n - 1

    def test_singletons_end_plus_one(self):
        for fam in ("thm2-single13", "thm2-single25"):
            script = script_generator(fam, 1)
            trace = replay(script)
            assert trace.final.labels == ("K",)
            assert trace.final.matrix.entries == ((1,),)

    def test_thm2_families_end_km(self):
        for fam in ("thm2-2a", "thm2-3a", "thm2-2b", "thm2-3b", "thm2-2c", "thm2-3c"):
            for n in (1, 2, 5):
                trace = replay(script_generator(fam, n))
                assert trace.final.labels == ("K", "m")
                assert trace.final.matrix.entries == ((0, 1), (1, -1))

    def test_all_supported_families_replay_to_50(self):
        # every intermediate state stays an integral homology sphere (|det|=1)
        for fam, kind in sorted(SCRIPTED_FAMILIES.items()):
            top = 1 if kind == "single" else 50
            for n in range(1, top + 1):
                trace = replay(script_generator(fam, n))
                assert all(abs(step.det) == 1 for step in trace.steps), (fam, n)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamily):
            script_generator("al-2", 1)
        with pytest.raises(UnsupportedFamily):
            script_generator("nosuch", 1)

    def test_annotations_present(self):
        script = script_generator("thm1-even3", 2)
        assert any("isotopy" in a for a in script.annotations)


# ---------------------------------------------------------------------------
# the moves against dense reference formulas, and determinant tracking


def dense_move(link, move):
    """Reference moves: every entry from the textbook formula, via from_rows."""
    m = link.matrix.entries
    n = link.size
    if isinstance(move, Blowdown):
        c = link.labels.index(move.component)
        eps = m[c][c]
        keep = [k for k in range(n) if k != c]
        rows = [[m[j][k] - eps * m[j][c] * m[c][k] for k in keep] for j in keep]
        return L([link.labels[k] for k in keep], rows)
    if isinstance(move, Slide):
        i, j, s = link.labels.index(move.moving), link.labels.index(move.over), move.sign
        rows = [list(r) for r in m]
        for k in range(n):
            if k != i:
                rows[i][k] = rows[k][i] = m[i][k] + s * m[j][k]
        rows[i][i] = m[i][i] + 2 * s * m[i][j] + m[j][j]
        return L(link.labels, rows)
    v = list(move.linking)
    rows = [list(r) + [v[k]] for k, r in enumerate(m)] + [v + [move.sign]]
    return L(link.labels + (move.label,), rows)


def reference_minus_one_slide(link):
    """The slide search scored by applying the first slide in full."""
    m = link.matrix.entries
    n = link.size
    for i in range(n):
        for j in range(n):
            if i == j or m[i][j] == 0:
                continue
            for s in (1, -1):
                if m[i][i] + 2 * s * m[i][j] + m[j][j] == -1:
                    return [Slide(link.labels[i], link.labels[j], s)]
    for i in range(n):
        for j in range(n):
            if i == j or m[i][j] == 0:
                continue
            for s1 in (1, -1):
                first = Slide(link.labels[i], link.labels[j], s1)
                m1 = dense_move(link, first).matrix.entries
                for k in range(n):
                    if k == i or m1[i][k] == 0:
                        continue
                    for s2 in (1, -1):
                        if m1[i][i] + 2 * s2 * m1[i][k] + m1[k][k] == -1:
                            return [first, Slide(link.labels[i], link.labels[k], s2)]
    return None


signs = st.sampled_from([1, -1])


@st.composite
def random_links(draw, max_n=5, bound=4):
    n = draw(st.integers(0, max_n))
    values = draw(st.lists(st.integers(-bound, bound), min_size=n * n, max_size=n * n))
    rows = [[values[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    return L([f"c{i}" for i in range(n)], rows)


@st.composite
def legal_scripts(draw):
    """Random legal move sequences: slides, unlinked and linked blow-ups, and
    blow-downs of whatever is framed +-1."""
    initial = state = draw(random_links())
    moves = []
    for fresh in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["blowup", "linked", "slide", "blowdown"]))
        m = state.matrix.entries
        if kind == "slide" and state.size >= 2:
            i, j = draw(st.permutations(range(state.size)))[:2]
            mv = Slide(state.labels[i], state.labels[j], draw(signs))
        elif kind == "blowdown" and any(abs(m[k][k]) == 1 for k in range(state.size)):
            ones = [lab for k, lab in enumerate(state.labels) if abs(m[k][k]) == 1]
            mv = Blowdown(draw(st.sampled_from(ones)))
        else:
            size = state.size
            vec = [0] * size if kind != "linked" else draw(
                st.lists(st.integers(-2, 2), min_size=size, max_size=size)
            )
            mv = Blowup(draw(signs), tuple(vec), f"e{fresh}")
        state = dense_move(state, mv)
        moves.append(mv)
    return KirbyScript("random", initial, tuple(moves), state)


class TestMovesAgainstDenseReference:
    @settings(deadline=None, max_examples=300)
    @given(legal_scripts())
    def test_every_move_matches_the_formula(self, script):
        state = script.initial
        for mv in script.moves:
            expected = dense_move(state, mv)
            state = apply_move(state, mv)
            assert state == expected
            assert state.matrix == IntMatrix.from_rows(state.matrix.entries)

    @settings(deadline=None, max_examples=300)
    @given(random_links(max_n=7, bound=3))
    def test_slide_search_picks_the_reference_candidate(self, link):
        assert _find_minus_one_slide(link) == reference_minus_one_slide(link)

    def test_slide_search_on_family_cascades(self):
        # every link the cascade searches, for the families that need slides
        for fam in ("thm1-even3", "thm2-3a", "thm2-3b", "thm2-3c"):
            script = script_generator(fam, 6)
            state = script.initial
            for mv in script.moves:
                if state.size > 1 and all(
                    state.matrix.entries[k][k] != -1 for k in range(state.size)
                ):
                    assert _find_minus_one_slide(state) == reference_minus_one_slide(state)
                state = apply_move(state, mv)

    def test_bad_signs_rejected(self):
        link = L(["a", "b"], [[-1, 1], [1, -2]])
        for sign in (True, 1.0, 0, 2):
            with pytest.raises(ValueError):
                slide(link, "a", "b", sign)
            with pytest.raises(ValueError):
                blow_up(link, sign, [0, 0], "c")


class TestDeterminantTracking:
    @settings(deadline=None, max_examples=300)
    @given(legal_scripts())
    def test_every_step_det_is_the_bareiss_det(self, script):
        trace = replay(script)
        assert len(trace.steps) == len(script.moves)
        links = list(accumulate(script.moves, apply_move, initial=script.initial))[1:]
        for step, link in zip(trace.steps, links):
            assert step.legal
            assert step.det == _bareiss_determinant(link.matrix)

    @settings(deadline=None, max_examples=200)
    @given(legal_scripts(), st.sampled_from(["framing", "missing", "same", "duplicate"]))
    def test_illegal_step_carries_the_pre_move_det(self, script, kind):
        last = script.expect
        if kind == "framing":
            bad = [lab for k, lab in enumerate(last.labels) if abs(last.matrix.entries[k][k]) != 1]
            assume(bad)
            move = Blowdown(bad[0])
        elif kind == "missing":
            move = Blowdown("zz")
        elif kind == "same":
            assume(last.size)
            move = Slide(last.labels[0], last.labels[0], 1)
        else:
            assume(last.size)
            move = Blowup(1, (0,) * last.size, last.labels[-1])
        bad_script = KirbyScript("illegal", script.initial, script.moves + (move,), last)
        with pytest.raises(StepIllegal) as err:
            replay(bad_script)
        steps = err.value.trace
        assert err.value.index == len(script.moves)
        assert [s.legal for s in steps] == [True] * len(script.moves) + [False]
        assert steps[-1].det == _bareiss_determinant(last.matrix)

    def test_scripted_families_to_30(self):
        for fam, kind in sorted(SCRIPTED_FAMILIES.items()):
            for n in range(1, (1 if kind == "single" else 30) + 1):
                script = script_generator(fam, n)
                trace = replay(script)
                dets = [step.det for step in trace.steps]
                links = list(accumulate(script.moves, apply_move, initial=script.initial))[1:]
                assert dets == [_bareiss_determinant(link.matrix) for link in links], (fam, n)
                assert script_to_json(script) == json.dumps(script.to_json_obj(), indent=1)

    def test_determinant_computed_for_initial_and_final_link_only(self, monkeypatch):
        import brieskorn.kirby as kirby

        # the initial link's det comes from its rows, the final one's from
        # its dense matrix
        calls = []
        orig, orig_rows = kirby.determinant, kirby._link_determinant
        monkeypatch.setattr(kirby, "determinant", lambda m: calls.append(m.n) or orig(m))
        monkeypatch.setattr(
            kirby, "_link_determinant", lambda link: calls.append(link.size) or orig_rows(link)
        )
        script = kirby.script_generator("thm2-3b", 8)
        assert calls == []
        kirby.replay(script)
        assert calls == [script.initial.size, script.expect.size]


    def test_tracked_determinant_is_checked_against_the_final_link(self, monkeypatch):
        import brieskorn.kirby as kirby

        calls = []
        orig = kirby._link_determinant

        def skewed(link):
            # a wrong initial determinant is carried to the end and caught there
            calls.append(link)
            return orig(link) * 3

        monkeypatch.setattr(kirby, "_link_determinant", skewed)
        with pytest.raises(AssertionError, match="tracked determinant"):
            kirby.replay(kirby.script_generator("thm1-even2", 2))
        assert len(calls) == 1

    def test_linked_blowup_det_comes_from_the_rows(self, monkeypatch):
        # a linked blow-up onto a forest recomputes det from the sparse rows:
        # the dense matrix is built once, for the final check
        initial = L(["a", "b"], [[-2, 1], [1, -2]])
        move = Blowup(-1, (1, 0), "c")
        after = apply_move(initial, move)
        reads = []
        dense = FramedLink.matrix.fget
        monkeypatch.setattr(FramedLink, "matrix", property(lambda link: reads.append(link) or dense(link)))
        trace = replay(KirbyScript("linked", initial, (move,), after))
        assert len(reads) == 1
        assert [s.det for s in trace.steps] == [_bareiss_determinant(dense(after))] == [-1]

    def test_generator_checks_its_final_link(self, monkeypatch):
        import brieskorn.kirby as kirby

        monkeypatch.setattr(kirby, "KM_TARGET", L(["K", "m"], [[0, 1], [1, -2]]))
        with pytest.raises(FinalMismatch, match="expected -2, got -1"):
            kirby.script_generator("thm1-even2", 2)


# labels as JSON carries them: any text, quotes and non-ASCII included
json_labels = st.text(max_size=6)
big_ints = st.one_of(st.integers(), st.integers(-(10**300), 10**300))


@st.composite
def any_links(draw):
    n = draw(st.integers(0, 3))
    labels = draw(st.lists(json_labels, min_size=n, max_size=n, unique=True))
    values = draw(st.lists(big_ints, min_size=n * n, max_size=n * n))
    rows = [[values[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    return L(labels, rows)


any_moves = st.one_of(
    st.builds(Blowdown, json_labels),
    st.builds(Slide, json_labels, json_labels, big_ints),
    st.builds(Blowup, big_ints, st.lists(big_ints, max_size=3).map(tuple), json_labels),
)


class TestScriptJsonBytes:
    @settings(deadline=None, max_examples=300)
    @given(
        json_labels,
        any_links(),
        st.lists(any_moves, max_size=4),
        any_links(),
        st.lists(st.text(max_size=8), max_size=2),
    )
    def test_same_bytes_as_json_dumps_indent_1(self, name, initial, moves, expect, notes):
        script = KirbyScript(name, initial, tuple(moves), expect, tuple(notes))
        assert script_to_json(script) == json.dumps(script.to_json_obj(), indent=1)

    def test_empty_links_and_special_labels(self):
        empty = L([], [])
        script = KirbyScript('q"\\é☃\n', empty, (), empty)
        assert script_to_json(script) == json.dumps(script.to_json_obj(), indent=1)


class TestSparseNormalForm:
    def test_slide_cancelling_an_entry_stores_no_zero(self):
        link = L(["a", "b", "c"], [[-2, 0, 1], [0, -2, 1], [1, 1, -2]])
        move = Slide("a", "b", -1)
        after = apply_move(link, move)
        assert after == dense_move(link, move)
        assert hash(after) == hash(dense_move(link, move))
        assert after.matrix.entries[0][2] == 0
        assert "c" not in after.rows["a"] and "a" not in after.rows["c"]

    def test_blow_down_zeroing_a_framing_stores_no_zero(self):
        link = L(["a", "b"], [[-1, 1], [1, -1]])
        move = Blowdown("a")
        after = apply_move(link, move)
        assert after == dense_move(link, move) == L(["b"], [[0]])
        assert hash(after) == hash(dense_move(link, move))
        assert after.rows == {"b": {}}

    def test_label_order_is_part_of_equality(self):
        ab = L(["a", "b"], [[-1, 0], [0, -2]])
        ba = L(["b", "a"], [[-2, 0], [0, -1]])
        assert ab.rows == ba.rows
        assert ab != ba

    @settings(deadline=None, max_examples=300)
    @given(random_links(max_n=7, bound=3), st.data())
    def test_slide_search_follows_label_positions(self, link, data):
        # label names in an order unrelated to their positions
        names = data.draw(st.permutations([f"x{k}" for k in range(link.size)]))
        relabeled = L(names, link.matrix.entries)
        assert _find_minus_one_slide(relabeled) == reference_minus_one_slide(relabeled)

    @settings(deadline=None, max_examples=200)
    @given(random_links(max_n=6))
    def test_dense_round_trip(self, link):
        m = link.matrix
        assert FramedLink(link.labels, m).matrix == m
        assert link.to_json_obj()["matrix"] == [list(r) for r in m.entries]
        assert all(x != 0 for row in link.rows.values() for x in row.values())

    @settings(deadline=None, max_examples=200)
    @given(legal_scripts())
    def test_moves_keep_the_normal_form(self, script):
        state = script.initial
        for mv in script.moves:
            expected = dense_move(state, mv)
            state = apply_move(state, mv)
            assert hash(state) == hash(expected)
            assert state.rows == expected.rows
            assert all(x != 0 for row in state.rows.values() for x in row.values())


class TestTraceLines:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 10**6), st.text(max_size=8), big_ints, st.booleans())
    def test_same_bytes_as_json_dumps(self, step, op, det, legal):
        from brieskorn.kirby import TraceStep

        s = TraceStep(step, op, det, legal)
        assert s.to_json() == json.dumps(s.to_json_obj())

    def test_integer_too_long_to_print(self):
        from brieskorn.kirby import TraceStep

        with pytest.raises(ValueError):
            TraceStep(1, "blowdown:a", 10**5000, True).to_json()


class TestScriptSizeCap:
    def test_cap_boundary(self):
        from brieskorn import family
        from brieskorn.kirby import MAX_SCRIPT_VERTICES as cap

        # thm2-3b n has n + 6 vertices; the count stops one past the cap
        assert brieskorn_plumbing(family("thm2-3b", cap - 6)).vertex_count == cap
        assert script_generator("thm2-3b", cap - 6).initial.size == cap
        with pytest.raises(UnsupportedFamily, match="cap"):
            script_generator("thm2-3b", cap - 5)
