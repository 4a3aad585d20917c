"""Shared oracles and generators for the test suite.

Oracles here stay independent of the code paths they check: grid
integration for moments, brute-force atom sums, companion-matrix
eigenvalues for node locations, coefficient-level polynomial algebra for
identities.
"""

import numpy as np
import pytest

import szquad as sq
from szquad import rulegen

from oracles import nodes_polynomial

P = np.polynomial.polynomial


def grid_moments(density_fn, n, grid_size=4096):
    """Trigonometric moments by uniform-grid integration of a density.

    Exact up to aliasing for smooth densities; the grid sum is the periodic
    trapezoid rule, so c_k = (1/N) sum f(phi_j) exp(-ik phi_j).
    """
    phis = 2 * np.pi * np.arange(grid_size) / grid_size
    vals = density_fn(phis)
    return np.array([np.mean(vals * np.exp(-1j * k * phis)) for k in range(n + 1)])


def atom_moments(angles, masses, n):
    """Moments of a discrete measure by brute-force summation."""
    angles = np.asarray(angles, dtype=float)
    masses = np.asarray(masses, dtype=float)
    masses = masses / masses.sum()
    return np.array([np.sum(masses * np.exp(-1j * k * angles)) for k in range(n + 1)])


def companion_nodes(spec):
    """Node angles via polynomial root finding on the nodes polynomial.

    Eigenvalue-based oracle for the phase-bisection node finder.
    """
    coeffs = nodes_polynomial(spec)
    roots = np.roots(coeffs[::-1])
    assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-8
    return np.sort(np.mod(np.angle(roots), 2 * np.pi))


def random_disk_points(rng, count, radius=0.6):
    return (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)) * radius / np.sqrt(2)


def random_rule_setup(rng, n_max=20, m_max=None, base_radius=0.6, tail_radius=0.8):
    """Random (measure, n, m, tail, eta) with coefficients well inside the disk."""
    n = int(rng.integers(1, n_max + 1))
    hi = n - 1 if m_max is None else min(m_max, n - 1)
    m = int(rng.integers(0, hi + 1)) if hi >= 0 else 0
    base = random_disk_points(rng, n - m - 1, base_radius)
    tail = random_disk_points(rng, m, tail_radius)
    eta = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return sq.ExplicitVerblunsky(base), n, m, tail, eta


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture
def kernel_calls(monkeypatch):
    """(sequence length, point count) of every `rulegen.prufer_phase` call, in order."""
    calls = []
    kernel = rulegen.prufer_phase

    def spy(alphas, phi):
        calls.append((np.size(alphas), np.size(phi)))
        return kernel(alphas, phi)

    monkeypatch.setattr(rulegen, "prufer_phase", spy)
    return calls
