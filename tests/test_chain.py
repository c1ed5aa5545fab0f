import itertools
import math

import numpy as np
import pytest

from oscdmrg import ChainSpec, ground_energy_closed
from oscdmrg.chain import dispersion, first_gap, mode_spectrum, parity_levels, spectrum


def test_chain_spec_validation():
    ChainSpec(1, 1.0, 2)
    with pytest.raises(ValueError):
        ChainSpec(0)
    with pytest.raises(ValueError):
        ChainSpec(3, hbar_tilde=0.0)
    for bad in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ChainSpec(3, bad)
    ChainSpec(3, 1e308)
    with pytest.raises(ValueError):
        ChainSpec(3, bare_dim=1)


def test_dispersion_values():
    # direct evaluation of the dispersion relation
    assert dispersion(ChainSpec(1), 1) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert dispersion(ChainSpec(3), 2) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_dispersion_range_and_errors():
    spec = ChainSpec(17)
    freqs = [dispersion(spec, j) for j in range(1, 18)]
    assert all(0.0 < w < 2.0 for w in freqs)
    assert all(b > a for a, b in zip(freqs, freqs[1:]))
    with pytest.raises(ValueError):
        dispersion(spec, 0)
    with pytest.raises(ValueError):
        dispersion(spec, 18)


def test_mode_spectrum_matches_dispersion():
    spec = ChainSpec(9, hbar_tilde=2.0)
    freqs = mode_spectrum(spec)
    assert freqs.shape == (9,)
    for j, w in enumerate(freqs, start=1):
        assert w == pytest.approx(dispersion(spec, j), abs=1e-14)


def test_ground_energy_small_chains():
    assert ground_energy_closed(ChainSpec(1)) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert ground_energy_closed(ChainSpec(2)) == pytest.approx(
        (1 + math.sqrt(3)) / 2, abs=1e-12
    )
    # frozen from the direct half mode sum at N=50
    assert ground_energy_closed(ChainSpec(50)) == pytest.approx(
        31.96504168950061, abs=1e-10
    )


@pytest.mark.parametrize("hbar", [0.1, 1.0, 5.0])
def test_closed_form_equals_half_mode_sum(hbar):
    for n in range(1, 201):
        spec = ChainSpec(n, hbar_tilde=hbar)
        direct = 0.5 * hbar * mode_spectrum(spec).sum()
        closed = ground_energy_closed(spec)
        assert abs(closed - direct) / closed <= 1e-12


def test_first_gap_values():
    assert first_gap(ChainSpec(1)) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert first_gap(ChainSpec(50)) == pytest.approx(0.061590117112340706, abs=1e-12)
    # small-angle limit
    big = ChainSpec(4000)
    assert first_gap(big) == pytest.approx(math.pi / 4001, rel=1e-5)


def test_first_gap_monotone_in_size():
    gaps = [first_gap(ChainSpec(n)) for n in range(1, 120)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_spectrum_single_mode():
    spec = ChainSpec(1, hbar_tilde=1.5)
    np.testing.assert_allclose(
        spectrum(spec, 3), 1.5 * math.sqrt(2) * np.arange(1, 4), atol=1e-12
    )


@pytest.mark.parametrize("hbar", [1e-13, 1e308])
def test_spectrum_scales_with_hbar(hbar):
    # levels are told apart relative to their size, and ones beyond those
    # asked for are never scaled, so tiny and huge hbar give the same levels
    levels = spectrum(ChainSpec(3, hbar), 2)
    np.testing.assert_allclose(levels, hbar * spectrum(ChainSpec(3), 2), rtol=1e-14)


def test_spectrum_two_modes():
    # modes 1 and sqrt(3); double occupation of mode 1 gives 2
    np.testing.assert_allclose(
        spectrum(ChainSpec(2), 3), [1.0, math.sqrt(3), 2.0], atol=1e-12
    )


def test_spectrum_oracle_brute_force():
    # enumerate occupation vectors exhaustively and compare
    spec = ChainSpec(4, hbar_tilde=0.7)
    freqs = 0.7 * mode_spectrum(spec)
    energies = set()
    for a in range(8):
        for b in range(8):
            for c in range(8):
                for d in range(8):
                    if a + b + c + d == 0:
                        continue
                    energies.add(a * freqs[0] + b * freqs[1] + c * freqs[2] + d * freqs[3])
    brute = sorted(energies)
    dedup = [brute[0]]
    for e in brute[1:]:
        if e - dedup[-1] > 1e-12 * max(1.0, e):
            dedup.append(e)
    got = spectrum(spec, 12)
    np.testing.assert_allclose(got, dedup[:12], atol=1e-10)


def test_spectrum_properties():
    spec = ChainSpec(6)
    levels = spectrum(spec, 15)
    assert len(levels) == 15
    assert all(b > a for a, b in zip(levels, levels[1:]))
    assert levels[0] == pytest.approx(first_gap(spec), abs=1e-12)
    with pytest.raises(ValueError):
        spectrum(spec, 0)


def test_spectrum_unchanged_by_the_parity_walk():
    # spectrum(ChainSpec(7, 0.7), 10) as the parent of the parity-resolved
    # walk printed it, bit for bit.
    frozen = [0.2731264508225795, 0.5357568053111257, 0.546252901645159,
              0.777798326227443, 0.8088832561337052, 0.8193793524677386,
              0.9899494936611664, 1.0509247770500225, 1.0715136106222514,
              1.0820097069562848]
    np.testing.assert_array_equal(spectrum(ChainSpec(7, 0.7), 10), frozen)


def test_parity_levels_two_modes():
    # modes 1 and sqrt(3): vacuum +, (1,0) -, (0,1) -, (2,0) +, (1,1) +, (3,0) -
    energies, signs = zip(*itertools.islice(parity_levels(ChainSpec(2)), 6))
    assert signs == (1, -1, -1, 1, 1, -1)
    s3 = math.sqrt(3)
    np.testing.assert_allclose(energies, [0.0, 1.0, s3, 2.0, 1.0 + s3, 3.0], atol=1e-12)
    np.testing.assert_array_equal(spectrum(ChainSpec(2), 5), energies[1:])

