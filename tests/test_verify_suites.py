"""The verification suites themselves: registry, determinism, witnesses."""

import hashlib
import math

import pytest

from miquel import kernel
from miquel.kernel import (
    VERTEX_LABELS,
    Point,
    Triangle,
    angle_distance,
    corners_xy,
    directed_angle_at_xy,
    directed_angle_xy,
    half_turn,
)
from miquel.errors import CollinearError, GeometryError
from miquel.kernel import circumcircle
from miquel.sampling import (
    random_catalog_triangle,
    random_circumcircle_point,
    random_exterior_point,
    random_point_in_circumdisk,
    rng_for,
)
from miquel.triads import pedal_shape_xy, pedal_triad
from miquel.verify import SUITES, ClaimResult, SuiteReport, _pedal, _witness, run_suite


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


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_builds_no_point_or_triangle(name, monkeypatch):
    """Every suite runs on coordinates: with ``Point`` and ``Triangle``
    unable to be built, it still runs and passes."""

    def refused(self, *args):
        raise AssertionError(f"{name} built a {type(self).__name__}")

    monkeypatch.setattr(kernel.Point, "__init__", refused)
    monkeypatch.setattr(kernel.Triangle, "__init__", refused)
    assert run_suite(name, seed=5, trials=4).passed


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
    t = (0, 0, 4, 0, 1, 3)
    claim = ClaimResult("x", 1e-9)
    claim.add(0.0, 0, t)
    claim.add(math.nan, 1, t, (2, 1))
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


# the claims that compare chain shapes with chains.CHAIN_SIMILARITY_TOL
CHAIN_BAND_CLAIMS = {
    "mod3-pedal-schedule", "mod3-random-schedule", "brocard-all-similar",
    "seed-similar-steps-0-1-mod3", "seed-similar-steps-2-0-mod3",
}


def test_chain_claims_read_the_chain_band(monkeypatch):
    def tolerances():
        return {c.name: c.tol for name in ("theorem14", "theorem15")
                for c in run_suite(name, 7, 1).claims}

    own = tolerances()
    monkeypatch.setattr("miquel.verify.CHAIN_SIMILARITY_TOL", 2e-6)
    moved = tolerances()
    assert moved.keys() == own.keys() and CHAIN_BAND_CLAIMS <= own.keys()
    for name, tol in moved.items():
        assert tol == (2e-6 if name in CHAIN_BAND_CLAIMS else own[name]), name


def test_informational_claim_without_trials_does_not_gate():
    rep = run_suite("theorem15", 7, 1)
    rep.claim("never-reached", 1.0, informational=True)
    assert rep.passed


@pytest.mark.parametrize("name", ["theorem1", "lemma2"])
def test_report_rng_draws_as_rng_for(name):
    """SuiteReport.each_trial yields the trial indices in order, each with one
    generator reseeded, which draws what a fresh rng_for(seed, suite, i)
    draws; each trial ends on a gauss() draw, which
    leaves the generator's second normal cached, and the next trial's first
    gauss() must not read it."""
    visited = []
    for i, rng in SuiteReport(name, 5, 60).each_trial():
        visited.append(i)
        fresh = rng_for(5, name, i)
        draws = [rng.gauss(0.0, 1.0), rng.random(), rng.uniform(-1.0, 2.0), rng.gauss(0.0, 1.0),
                 rng.gauss(0.0, 1.0)]
        assert draws == [fresh.gauss(0.0, 1.0), fresh.random(), fresh.uniform(-1.0, 2.0),
                         fresh.gauss(0.0, 1.0), fresh.gauss(0.0, 1.0)]
    assert visited == list(range(60))


# sha256 of every trial's claim name, residual repr and witness, in the order
# the suite adds them, for each suite at its default trial count, at seed 5
# and at seed 9. verify prints only each claim's worst residual; this pins
# them all.
TRIAL_DIGESTS = {
    5: {
        "theorem1": "c61f8f6f0aea4a98fe8f77e8c0881998650e5f1bd184af979cbbf1add6759dc6",
        "theorem2": "46989bfc89df8b8c7d8d2ef1ebed2c823a708963e62ff8554baa8417295e73da",
        "theorem3": "60593855faae379bd28b57bfc000436c082f04301cdd0eeaf0ee5dc22b69766f",
        "theorem4": "11392b42e016e7d3dc90f2a9505eef5c1df54e00df631a5f6234f2be9ee200e1",
        "theorem5": "906a7be2ef3faab67ec539b3d15dcd85438c6bd98fcefd40110b41861d6142f7",
        "theorem6": "208ee674bb8d29a0429383c93984b226b7a3e9c93f89f0c14f0d440369b604e8",
        "theorem7": "b66d18cff41a43b3b03d78dda7165b6a22ec8ec9680f634669f4c45bb31ebc72",
        "theorem8": "a86a3de66aa39b790f66d8a8e930cf25af540e3f250311e17953e47b49d5228e",
        "theorem9": "56c53bbc3504ce02563c58ccde6b6a05a52bfc6182c56ebdeb6e03dbfdb1624a",
        "theorem10": "f2442a640e9f8a372da81edd68ce9d72752702beca4249655cd8bf3f93c69d0c",
        "theorem11": "7ca152716c84f02a09e20b087d3332ba573aa9ee370aff2c37b1456d59a6e221",
        "theorem12": "87974abde39784d2a9f9e226416e93cc0ab91423d79e6386b4ca57f96282898b",
        "theorem13": "e02e8a4d6a639d8ac9002e33c8b38e8224ce19105fba7454b7ff1787544f03c9",
        "lemma1": "f65f3d6abee9000516af27dd6d33017ec9155c6b7b562ee73baf7f14fc6e39be",
        "lemma2": "4495ca08dfbde3cee3804498b4e7978d1ce6e87d95bc38c44296261d76309cfb",
        "simson": "adc0e0f1eb8d7ae623e4f956d61d1a699c9da8f6acede1fe9a0d8e9abdee8aae",
        "theorem14": "f1f05df64db5f28084ab58755e1737eb1fb231fd55ef82cae3491f07fef5e31b",
        "theorem15": "2ee899f6724b126874490c5ca4585f5c981481f539f2aa50fde7f58b24f0aba2",
        "corollary4": "d2304133de497a4165ba6050b0db20d4939ec8b46ca3997760715b860fb551d8",
    },
    9: {
        "theorem1": "6638b2ccd13414d78f3112e236720f3e175af11af680c113f461f89efa1005f8",
        "theorem2": "d76240f800edbbba3c27be939848418f6b92857041acff20f8eb55e911245757",
        "theorem3": "962dda9217e6562704a57132495c301d769455925ce87e1efdc08ef8e538dd40",
        "theorem4": "d753d77e397c6918d6ac5ad071b737ccd9bd39e287527bc47d0d2798cf811d58",
        "theorem5": "720611db148ad4a8696afdd983e9e04de18f11516c4b1f5d7c357715856e3c73",
        "theorem6": "efdaff20144548c4d5facd535fce579a8213ed19d25a749da7288d10c83575db",
        "theorem7": "42048bfd160400d8d03097c63fab5af49d2d49130b9b85cc512d4c5ef6e96c3e",
        "theorem8": "97427dac5abd9a21ea20466b1aecf9d68829b112b578ef260c5312a92ad0d019",
        "theorem9": "f0f119f36dbfb6d513409ac7864a5724aed62c5e18ef69b8f6d1dd98476a8178",
        "theorem10": "c6ad9ad62aeaae79e7c3b1d4b482a176384c8ffc23ced346a526740e233ef6d2",
        "theorem11": "b7a9a4ad2467472416fca41065217d7ab267b56d1dc479f93d94250976b8d06a",
        "theorem12": "9b781e12ecd75224a57d14c3000c463a7cd326ab4cc4cdcee4bc159af63f6802",
        "theorem13": "ee1595b858742fba4d628fa76c41b7e1c292295d94c8bc6c705b43a7259abd06",
        "lemma1": "d4db8ba4cc54fec47ffaa8a4ed44c49923efe2321e0ba395f6fe992a5f5a06b5",
        "lemma2": "92394bc26466278700b9cecf3993bd0f31f9432c2d12af77238655b005deadbe",
        "simson": "e23f891781be59e6e51c2ebd7f54363287e8caa6b25e5d944fb58a0b30fe6893",
        "theorem14": "bc99c5f26dc061807c86eb238a693fc23ca6db6c64aa45124ccf218661040430",
        "theorem15": "bee7c676ae1284c0fe41a7254de8b3944180c9a08a41305f6be2e10fab0d0873",
        "corollary4": "2521c561ee3668f11fece7a0b84f42d2c8898f580e424bb0e2d7fd76a86f32a2",
    },
}


@pytest.mark.parametrize("seed, name", [
    # the seed-5 cases keep their plain suite names
    pytest.param(seed, name, id=name if seed == 5 else f"{name}-seed{seed}")
    for seed, digests in TRIAL_DIGESTS.items() for name in digests
])
def test_every_trial_repeats_digit_for_digit(seed, name, monkeypatch):
    lines = []
    add = ClaimResult.add

    def recorded(self, residual, i, t, p=None, note=""):
        lines.append(f"{self.name} {residual!r} {_witness(i, t, p, note)}")
        add(self, residual, i, t, p, note)

    monkeypatch.setattr(ClaimResult, "add", recorded)
    run_suite(name, seed)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TRIAL_DIGESTS[seed][name]


@pytest.mark.parametrize("name", list(SUITES))
def test_worst_is_the_witness_of_the_first_worst_trial(name, monkeypatch):
    """``worst`` is formatted when read, from the trial kept by ``add``: the
    witness of the first trial that reached ``max_residual`` (a NaN counted
    as ``inf``), and None while every residual is 0."""
    added = []
    add = ClaimResult.add

    def recorded(self, residual, i, t, p=None, note=""):
        added.append((self, math.inf if math.isnan(residual) else residual,
                       _witness(i, t, p, note)))
        add(self, residual, i, t, p, note)

    monkeypatch.setattr(ClaimResult, "add", recorded)
    rep = run_suite(name, 7, 4)
    for c in rep.claims:
        rows = [(residual, w) for claim, residual, w in added if claim is c]
        assert len(rows) == c.trials
        first = next((w for residual, w in rows if residual == c.max_residual), None)
        assert c.worst == (first if c.max_residual > 0.0 else None)


def test_theorem11_reduces_the_doubled_angle(monkeypatch):
    """theorem11's double-angle residual, trial for trial, equals its form on
    the checked pedal triad, which reduces twice the vertex angle by
    ``half_turn`` before the comparison; without that reduction the last
    digits of some residuals move."""
    rows = []
    add = ClaimResult.add

    def recorded(self, residual, i, t, p=None, note=""):
        if self.name == "double-angle-at-point":
            rows.append((residual, i, t, p))
        add(self, residual, i, t, p, note)

    monkeypatch.setattr(ClaimResult, "add", recorded)
    run_suite("theorem11", 5, 1000)
    assert len(rows) == 1000
    for residual, i, t, p in rows:
        v = VERTEX_LABELS[i % 3]
        shape = pedal_triad(t, *p)
        _, b2, c2 = corners_xy(shape, v)
        doubled = half_turn(2 * directed_angle_at_xy(shape, v))
        assert residual == angle_distance(directed_angle_xy(*b2, *p, *c2), doubled)


def _raised(f, *args):
    try:
        f(*args)
    except (ValueError, GeometryError) as exc:
        return type(exc), str(exc)
    return None


def test_shape_only_pedal_raises_as_measures_xy():
    """theorem3 and theorem4 check each pedal triangle as ``Triangle`` does,
    without its circumcircle: the same vertices as the measured pedal, and
    what measuring it raised. A point on the circumcircle gives a collinear
    pedal, a huge point a non-finite foot, so a non-finite difference."""
    rng = rng_for(0, "pedal-shape", 0)
    raised = []
    for _ in range(300):
        t = random_catalog_triangle(rng)
        circle = circumcircle(*t)
        for p in (random_point_in_circumdisk(rng, t, circle),
                  random_exterior_point(rng, t, circle),
                  random_circumcircle_point(rng, t, circle)):
            expected = _raised(_pedal, t, *p)
            assert _raised(pedal_shape_xy, t, *p) == expected
            if expected is None:
                assert pedal_shape_xy(t, *p) == _pedal(t, *p).xy
            raised.append(expected)
    assert raised.count((CollinearError, "degenerate triangle: collinear within tolerance")) == 300
    host = (-6e307, 0.0, 6e307, 0.0, 0.0, 6e307)
    nan_foot = (ValueError, "non-finite coordinates (nan, nan)")
    assert _raised(pedal_shape_xy, host, 0.0, -1.7e308) == nan_foot
    assert _raised(_pedal, host, 0.0, -1.7e308) == nan_foot
    # a pedal whose circumcircle alone overflows passes, as Triangle would
    shape = pedal_shape_xy(host, 0.0, -1e308)
    assert Triangle(Point(*shape[0:2]), Point(*shape[2:4]), Point(*shape[4:6])).xy == shape
    assert _raised(_pedal, host, 0.0, -1e308) == nan_foot
