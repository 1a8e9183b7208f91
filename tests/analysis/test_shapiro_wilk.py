"""The pure-Python Shapiro–Wilk port: differential against scipy, edges."""

import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.analysis.normality import shapiro_wilk

SIZES = (3, 4, 5, 6, 7, 11, 12, 151, 2000)
KINDS = ("normal", "exponential", "tied")


@pytest.fixture(scope="module")
def scipy_stats():
    return pytest.importorskip("scipy.stats")


def _sample(kind: str, n: int, seed: int) -> list[float]:
    """A seeded sample of ``kind``; redrawn until it is not constant."""
    rng = random.Random(f"{kind}-{n}-{seed}")
    while True:
        if kind == "normal":
            values = [rng.gauss(10.0, 3.0) for _ in range(n)]
        elif kind == "exponential":
            values = [rng.expovariate(0.5) for _ in range(n)]
        else:
            values = [float(rng.randint(0, 3)) for _ in range(n)]
        if len(set(values)) > 1:
            return values


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_matches_scipy(scipy_stats, kind, n):
    for seed in range(3):
        values = _sample(kind, n, seed)
        w, p = shapiro_wilk(values)
        expected_w, expected_p = map(float, scipy_stats.shapiro(values))
        if n == 3:
            assert w == pytest.approx(expected_w, rel=0, abs=1e-12)
            assert p == pytest.approx(expected_p, rel=0, abs=1e-12)
        else:
            assert w == pytest.approx(expected_w, rel=1e-12, abs=0)
            assert p == pytest.approx(expected_p, rel=1e-9, abs=0)


def test_input_order_does_not_matter_to_scipy_agreement(scipy_stats):
    # The pre-processing subtracts x[n // 2] of the *unsorted* input.
    values = _sample("exponential", 151, 0)
    shuffled = list(values)
    random.Random(5).shuffle(shuffled)
    w, p = shapiro_wilk(shuffled)
    expected_w, expected_p = map(float, scipy_stats.shapiro(shuffled))
    assert w == pytest.approx(expected_w, rel=1e-12, abs=0)
    assert p == pytest.approx(expected_p, rel=1e-9, abs=0)


def test_large_offset_keeps_precision(scipy_stats):
    # Without subtracting x[n // 2] first, W drifts by ~1e-9 here.
    rng = random.Random(1)
    values = [1e9 + rng.gauss(0.0, 1.0) for _ in range(151)]
    w, p = shapiro_wilk(values)
    expected_w, expected_p = map(float, scipy_stats.shapiro(values))
    assert w == pytest.approx(expected_w, rel=1e-12, abs=0)
    assert p == pytest.approx(expected_p, rel=1e-9, abs=0)


@pytest.mark.parametrize("n", range(4, 12))
def test_small_sample_extreme_tail_matches_scipy(scipy_stats, n):
    # One outlier is the lowest W a small sample can reach: the far
    # tail of the n <= 11 transform.
    values = [0.0] * (n - 1) + [1.0]
    w, p = shapiro_wilk(values)
    expected_w, expected_p = map(float, scipy_stats.shapiro(values))
    assert w == pytest.approx(expected_w, rel=1e-12, abs=0)
    assert p == pytest.approx(expected_p, rel=1e-9, abs=0)


def test_three_equally_spaced_points_are_perfectly_normal():
    assert shapiro_wilk([0.0, 1.0, 2.0]) == (1.0, 1.0)


def test_constant_sample_rejects_normality():
    assert shapiro_wilk([0.25] * 12) == (0.0, 0.0)
    assert shapiro_wilk([1e-300, 2e-300, 3e-300]) == (0.0, 0.0)


def test_too_few_raises():
    with pytest.raises(ValueError):
        shapiro_wilk([1.0, 2.0])


def test_large_sample_warns():
    values = _sample("normal", 5001, 0)
    with pytest.warns(UserWarning, match="n > 5000"):
        shapiro_wilk(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shapiro_wilk(values[:5000])


def test_cli_import_loads_neither_numpy_nor_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    code = ("import sys, repro.cli; "
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"
