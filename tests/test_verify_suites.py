"""The verification suites themselves: registry, determinism, witnesses."""

import math

import pytest

from miquel.kernel import Point, Triangle
from miquel.verify import SUITES, ClaimResult, run_suite


def test_registry_names():
    expected = {f"theorem{i}" for i in range(1, 16)} | {"lemma1", "lemma2", "corollary4", "simson"}
    assert set(SUITES) == expected


def test_default_trial_counts():
    assert {name: trials for name, (_, trials) in SUITES.items()} == {
        "theorem1": 1000,
        "theorem2": 500,
        "theorem3": 200,
        "theorem4": 50,
        "theorem5": 100,
        "theorem6": 100,
        "theorem7": 100,
        "theorem8": 100,
        "theorem9": 100,
        "theorem10": 100,
        "theorem11": 100,
        "theorem12": 200,
        "theorem13": 100,
        "theorem14": 50,
        "theorem15": 50,
        "corollary4": 50,
        "lemma1": 400,
        "lemma2": 500,
        "simson": 200,
    }


@pytest.mark.parametrize("name", list(SUITES))
def test_zero_trials_rejected(name):
    with pytest.raises(ValueError, match="at least one trial, got 0"):
        run_suite(name, 7, 0)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nope", 7)


def test_all_suites_pass_smoke():
    # reduced trial counts keep this fast; full counts run in acceptance
    for name in SUITES:
        rep = run_suite(name, seed=5, trials=10)
        assert rep.passed, f"{name}: " + "; ".join(
            f"{c.name} max={c.max_residual}" for c in rep.claims if not c.passed
        )


def test_deterministic_given_seed():
    a = run_suite("theorem1", seed=9, trials=50)
    b = run_suite("theorem1", seed=9, trials=50)
    assert [(c.name, c.max_residual, c.worst) for c in a.claims] == [
        (c.name, c.max_residual, c.worst) for c in b.claims
    ]


def test_different_seeds_differ():
    a = run_suite("theorem1", seed=1, trials=50)
    b = run_suite("theorem1", seed=2, trials=50)
    assert [c.max_residual for c in a.claims] != [c.max_residual for c in b.claims]


def test_worst_witness_recorded():
    rep = run_suite("theorem2", seed=3, trials=20)
    claim = rep.claims[0]
    assert claim.worst is not None
    assert claim.worst.startswith("trial ")
    assert "A=(" in claim.worst and "P=(" in claim.worst


def _run_all(seed, trials):
    return [run_suite(name, seed, trials) for name in SUITES]


def test_run_all_covers_registry():
    reports = _run_all(seed=2, trials=5)
    assert [r.suite for r in reports] == list(SUITES)
    assert all(r.passed for r in reports)


def test_informational_claims_do_not_gate():
    rep = run_suite("theorem15", seed=4, trials=5)
    assert any(c.informational for c in rep.claims)
    gating = [c for c in rep.claims if not c.informational]
    assert rep.passed == all(c.passed for c in gating)


def test_five_distinct_seeds_pass():
    for seed in (1, 2, 3, 4, 5):
        reports = _run_all(seed, trials=10)
        bad = [r.suite for r in reports if not r.passed]
        assert not bad, f"seed {seed}: {bad}"


def test_nan_residual_fails_its_trial():
    t = Triangle(Point(0, 0), Point(4, 0), Point(1, 3))
    claim = ClaimResult("x", 1e-9)
    claim.add(0.0, 0, t)
    claim.add(math.nan, 1, t, Point(2, 1))
    assert claim.trials == 2
    assert claim.max_residual == math.inf
    assert not claim.passed
    assert claim.worst.startswith("trial 1: A=(0,0) B=(4,0) C=(1,3) P=(2,1)")
    # nothing is worse than a failed trial; its witness stays
    claim.add(1e300, 2, t)
    claim.add(math.nan, 3, t)
    assert claim.trials == 4
    assert claim.worst.startswith("trial 1: ")


def test_claim_no_trial_reached_fails():
    assert not ClaimResult("x", 1e-9).passed
    # obtuse hosts run only on odd trials, so one trial checks no excenter
    rep = run_suite("theorem6", 7, 1)
    claims = {c.name: c for c in rep.claims}
    assert claims["acute-incenter"].passed
    assert claims["obtuse-excenter"].trials == 0
    assert not claims["obtuse-excenter"].passed
    assert not rep.passed


def test_informational_claim_without_trials_does_not_gate():
    rep = run_suite("theorem15", 7, 1)
    rep.claim("never-reached", 1.0, informational=True)
    assert rep.passed
