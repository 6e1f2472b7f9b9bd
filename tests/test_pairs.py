"""The summary arithmetic of ``tools/pairs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_quartiles_and_medians():
    s = pairs.summarize(PARENT, [v + 5.0 for v in PARENT], "higher")
    # exclusive quartiles of 10..19 sit at ranks 2.75 and 8.25
    assert s["parent"] == pytest.approx((11.75, 14.5, 17.25))
    assert s["change"] == pytest.approx((16.75, 19.5, 22.25))
    assert s["parent_iqr"] == pytest.approx(5.5)
    assert (s["wins"], s["pairs"], s["gap"]) == (10, 10, 5.0)


@pytest.mark.parametrize("shift, gain", [(5.6, True), (5.5, False), (5.0, False)])
def test_gap_must_exceed_the_parent_iqr(shift, gain):
    assert pairs.summarize(PARENT, [v + shift for v in PARENT], "higher")["gain"] is gain


def test_lower_is_better():
    s = pairs.summarize(PARENT, [v - 6.0 for v in PARENT], "lower")
    assert (s["wins"], s["gap"], s["gain"]) == (10, 6.0, True)
    assert pairs.summarize(PARENT, [v - 6.0 for v in PARENT], "higher")["wins"] == 0


@pytest.mark.parametrize("losses, gain", [(1, True), (2, False)])
def test_nine_tenths_of_the_pairs_must_be_won(losses, gain):
    # a lost pair and a tie each take a win away
    change = [v + 100.0 for v in PARENT]
    change[0] = PARENT[0] - 1.0
    if losses == 2:
        change[1] = PARENT[1]
    s = pairs.summarize(PARENT, change, "higher")
    assert (s["wins"], s["gain"]) == (10 - losses, gain)


def test_sides_alternate():
    assert [pairs.first_side(n) for n in range(1, 5)] == ["parent", "change"] * 2


# PARENT's median is 14.5 and its interquartile range 5.5: a bound of 0.5 gives a
# margin of 7.25, wider than the range, and a bound of 0.25 one of 3.625, narrower


@pytest.mark.parametrize("shift, verdict", [(0.0, "ok"), (-7.25, "ok"), (-7.5, "worse")])
def test_worse_past_the_margin(shift, verdict):
    assert pairs.regression(PARENT, [v + shift for v in PARENT], "higher", 0.5) == verdict
    assert pairs.regression(PARENT, [v - shift for v in PARENT], "lower", 0.5) == verdict


@pytest.mark.parametrize("shift, verdict", [(0.0, "unresolved"), (9.0, "unresolved"),
                                            (10.0, "ok"), (-5.0, "worse")])
def test_unresolved_when_the_parent_spreads_past_the_margin(shift, verdict):
    # only a change whose every run beats every parent run resolves a wide parent
    assert pairs.regression(PARENT, [v + shift for v in PARENT], "higher", 0.25) == verdict
    assert pairs.regression(PARENT, [v - shift for v in PARENT], "lower", 0.25) == verdict


def test_verdicts_rank_from_best_to_worst():
    assert max(["ok", "worse", "unresolved"], key=pairs.VERDICTS.index) == "worse"
    assert max(["ok", "unresolved"], key=pairs.VERDICTS.index) == "unresolved"


def result(failed, attempted, value):
    """A result line of ``perfbench/run.py`` that gives every metric ``value``."""
    return {"failed": failed, "attempted": attempted,
            "metrics": {name: {"value": value} for name in ("fast_s", "rate")}}


@pytest.mark.parametrize("parent, change, more", [
    ((0, 100), (0, 100), False), ((0, 100), (1, 100), True), ((1, 100), (0, 100), False),
    # shares, not counts: 2 of 200 is the share of 1 of 100
    ((1, 100), (2, 200), False), ((1, 100), (3, 200), True)])
def test_fails_more_compares_shares(parent, change, more):
    runs = {side: [result(f, a, 1.0)] for side, (f, a) in (("p", parent), ("c", change))}
    assert pairs.fails_more(runs["p"], runs["c"]) is more


@pytest.mark.parametrize("change_failed, gain, overall", [
    (0, "yes", "overall: ok"), (1, "no", "overall: worse (failed share worse)")])
def test_a_change_that_fails_more_gains_nothing(tmp_path, monkeypatch, capsys, change_failed,
                                                gain, overall):
    # the change is 10% faster on every pair, well past the parent's spread
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "fast_s", "better": "lower", "bound": 0.25},
        {"name": "rate", "better": "lower", "bound": 0.25}]}), encoding="utf-8")
    seen = []

    def fake_run(checkout, workload, seed, seconds):
        seen.append((checkout.name, workload, seed, seconds))
        change = checkout.name == "change"
        return result(change_failed if change else 0, 50, 0.9 if change else 1.0)

    monkeypatch.setattr(pairs, "run", fake_run)
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "w", "--seconds", "0.5", "--pairs", "3"]) == 0
    assert seen == [("parent", "w", 1, 0.5), ("change", "w", 1, 0.5),
                    ("change", "w", 2, 0.5), ("parent", "w", 2, 0.5),
                    ("parent", "w", 3, 0.5), ("change", "w", 3, 0.5)]
    out = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in out if line.startswith(("fast_s", "rate"))]
    assert [row[-3:] for row in rows] == [["3/3", gain, "ok"]] * 2
    assert out[-1] == overall
