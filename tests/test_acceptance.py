"""End-to-end gate: one test per shipped guarantee, timed where promised.

Each test prints an ACCEPTANCE marker so a verbose run doubles as a
checklist.  Timing bounds are generous ceilings, not benchmarks; the
assertions on exact values are the real content.
"""

import itertools
import random
import time

import pytest

from binwords import (
    CheckConfig,
    PRESETS,
    equivalent,
    fixed_point_prefix,
    is_power_free,
    lift_matrix,
    longest_avoiding,
    run_check,
    scan_fixed_point,
    signature,
    subword_count,
    word,
)
from binwords.cli import main

from oracles import naive_subword_count

EXAMPLE_WORD = "0101110"
EXAMPLE_COUNTS = (3, 4, 3, 7, 5, 6)
EXAMPLE_QUAD = ("0101110", "0110101", "1001101", "1010011")

X_PREFIX_24 = "012021012102012021020121"
Z_PREFIX_27 = "001001011001001011001011011"
Y_PREFIX_26 = "12102012101202102012021012"

M_H_ROWS = [
    [2, 1, 0, 0, 0, 0],
    [1, 2, 0, 0, 0, 0],
    [1, 0, 4, 2, 2, 1],
    [2, 2, 2, 4, 1, 2],
    [0, 0, 2, 1, 4, 2],
    [0, 1, 1, 2, 2, 4],
]


def best_of_three(fn) -> float:
    fn()  # warm caches before timing
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_01_signature_example_reproduction():
    sig = signature(EXAMPLE_WORD, 2)
    assert sig.counts == EXAMPLE_COUNTS
    for a in EXAMPLE_QUAD:
        for b in EXAMPLE_QUAD:
            assert equivalent(a, b, 2)
    assert equivalent("0001111", EXAMPLE_WORD, 1)
    assert not equivalent("0001111", EXAMPLE_WORD, 2)

    def workload():
        assert signature(EXAMPLE_WORD, 2).counts == EXAMPLE_COUNTS

    assert best_of_three(workload) < 1e-3
    print("ACCEPTANCE 1: PASS")


def test_02_subword_count_oracle_equivalence():
    t0 = time.perf_counter()
    patterns = [
        tuple(x)
        for r in range(1, 4)
        for x in itertools.product(range(2), repeat=r)
    ]
    for n in range(9):
        for tup in itertools.product(range(2), repeat=n):
            u = word(tup, 2)
            for x in patterns:
                assert subword_count(u, word(x, 2)) == naive_subword_count(tup, x)
    rng = random.Random(0)
    for _ in range(10_000):
        u = tuple(rng.randrange(3) for _ in range(rng.randrange(13)))
        x = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 5)))
        assert subword_count(word(u, 3), word(x, 3)) == naive_subword_count(u, x)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print("ACCEPTANCE 2: PASS")


def test_03_fixed_point_prefixes(capsys):
    assert main(["generate", "g", "24"]) == 0
    assert main(["generate", "h", "27"]) == 0
    assert main(["generate", "gtilde2", "26"]) == 0
    out = capsys.readouterr().out
    assert out == f"{X_PREFIX_24}\n{Z_PREFIX_27}\n{Y_PREFIX_26}\n"

    def workload():
        assert str(fixed_point_prefix(PRESETS["g"].morphism, 0, 24)) == X_PREFIX_24
        assert str(fixed_point_prefix(PRESETS["h"].morphism, 0, 27)) == Z_PREFIX_27
        gt2 = PRESETS["gtilde2"].morphism
        assert str(fixed_point_prefix(gt2, 1, 26)) == Y_PREFIX_26

    assert best_of_three(workload) < 1e-3
    print("ACCEPTANCE 3: PASS")


def test_04_square_freeness_at_scale():
    rep = scan_fixed_point(PRESETS["g"].morphism, 0, 5000, 2, 2)
    assert rep.word_len == 5000
    assert not rep.found
    assert rep.elapsed_s < 60
    print("ACCEPTANCE 4: PASS")


def test_05_cube_freeness_at_scale():
    rep = scan_fixed_point(PRESETS["h"].morphism, 0, 5000, 2, 3)
    assert rep.word_len == 5000
    assert not rep.found
    assert rep.elapsed_s < 60
    print("ACCEPTANCE 5: PASS")


def test_06_matrix_identity_at_scale():
    t0 = time.perf_counter()
    h = PRESETS["h"].morphism
    lifted = lift_matrix(h, 2)
    assert lifted.to_lists() == M_H_ROWS
    assert lifted.is_invertible()
    rng = random.Random(6)
    for _ in range(100_000):
        u = word(tuple(rng.randrange(2) for _ in range(rng.randrange(101))), 2)
        got = lifted.apply(signature(u, 2))
        want = signature(h(u), 2)
        assert got.counts == want.counts and got.length == want.length
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print("ACCEPTANCE 6: PASS")


def test_07_unaligned_cube_exhaustives():
    t0 = time.perf_counter()
    cfg = CheckConfig(cube_n_max=6)
    # sum of 2^(3n+1) over n = 1..6 and of 2^(3n+2) over n = 0..6
    for name, instances in (("cube-mod1", 599_184), ("cube-mod2", 1_198_372)):
        rep = run_check(name, cfg)
        assert rep.passed, rep.violations
        assert rep.instances == instances
    assert time.perf_counter() - t0 < 600
    print("ACCEPTANCE 7: PASS")


def test_08_desubstitution_battery():
    t0 = time.perf_counter()
    rep = run_check("desubstitution", CheckConfig(desub_scan_len=3000, desub_max_len=40))
    assert rep.passed, rep.violations
    assert rep.instances > 0
    assert time.perf_counter() - t0 < 300
    print("ACCEPTANCE 8: PASS")


def test_09_optimality_by_search():
    t0 = time.perf_counter()
    cert = longest_avoiding(2, 2, 2, 100)
    assert cert.outcome == "maximal" and cert.max_length == 3
    assert is_power_free(cert.witness, 2, 2)

    cert = longest_avoiding(1, 2, 3, 100)
    assert cert.outcome == "maximal" and cert.max_length == 2
    assert is_power_free(cert.witness, 2, 3)

    cert = longest_avoiding(3, 2, 2, 50)
    assert cert.outcome == "cap_reached" and len(cert.witness) == 50
    assert is_power_free(cert.witness, 2, 2)

    cert = longest_avoiding(2, 2, 3, 50)
    assert cert.outcome == "cap_reached" and len(cert.witness) == 50
    assert is_power_free(cert.witness, 2, 3)
    assert time.perf_counter() - t0 < 300
    print("ACCEPTANCE 9: PASS")


def test_10_image_cube_freeness_exhaustive():
    t0 = time.perf_counter()
    rep = run_check(
        "image-cube-free",
        CheckConfig(image_trials=0, image_max_len=10, image_exhaustive_len=10),
    )
    assert rep.passed, rep.violations
    assert rep.instances > 0
    # spot-check the statement directly on a few filtered words
    h = PRESETS["h"].morphism
    for tup in itertools.product(range(2), repeat=7):
        w = word(tup, 2)
        if is_power_free(w, 2, 3):
            assert is_power_free(h(w), 2, 3)
    assert time.perf_counter() - t0 < 600
    print("ACCEPTANCE 10: PASS")


@pytest.mark.parametrize("name", ["identities", "cyclic", "consistency"])
def test_11_property_suites(name):
    rep = run_check(name, CheckConfig())
    assert rep.passed, rep.violations
    assert rep.instances >= 10_000
    flipped = run_check(
        name,
        CheckConfig(
            fault=frozenset({name}),
            identity_trials=300,
            cyclic_trials=300,
            consistency_trials=300,
        ),
    )
    assert flipped.violations_total > 0
    print(f"ACCEPTANCE 11 ({name}): PASS")
