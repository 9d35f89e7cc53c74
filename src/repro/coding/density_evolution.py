"""Gaussian-approximation density evolution for protograph LDPC codes.

Density evolution predicts the asymptotic (infinite lifting factor)
behaviour of belief propagation: below the *threshold* Eb/N0 the error
probability does not vanish, above it decoding succeeds.  The Gaussian
approximation (Chung et al.) tracks only the mean of the edge messages,
which is accurate enough to reproduce the ordering the paper relies on:

* the coupled (LDPC-CC) ensemble has a better BP threshold than the
  underlying block ensemble, and
* enlarging the decoding window improves the window-decoding threshold
  with diminishing returns.

The module is also the fast engine behind the Fig. 10 benchmark: it places
each (N, W) configuration on the Eb/N0 axis without hours of Monte-Carlo
simulation (the Monte-Carlo harness in :mod:`repro.coding.ber` is used to
validate the predictions at a reduced BER target).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

from repro.coding.protograph import (
    EdgeSpreading,
    Protograph,
    coupled_protograph,
)
from repro.utils.units import db_to_linear

#: Means above this value are treated as "perfect knowledge".
_MEAN_CLIP = 400.0


def _phi(mean: np.ndarray) -> np.ndarray:
    """Chung's phi function: 1 - E[tanh(u/2)], u ~ N(mean, 2*mean)."""
    mean = np.asarray(mean, dtype=float)
    small = mean < 10.0
    result = np.empty_like(mean)
    clipped = np.clip(mean[small], 1e-12, None)
    result[small] = np.exp(-0.4527 * clipped ** 0.86 + 0.0218)
    large = ~small
    big = mean[large]
    result[large] = (np.sqrt(np.pi / np.maximum(big, 1e-12)) *
                     np.exp(-big / 4.0) * (1.0 - 10.0 / (7.0 * big)))
    return np.clip(result, 0.0, 1.0)


#: Lazily built lookup table for the inverse of :func:`_phi`:
#: ``(log phi values ascending, corresponding means)``.
_PHI_INVERSE_TABLE = None


def _phi_inverse(value: np.ndarray) -> np.ndarray:
    """Numerical inverse of :func:`_phi` via a monotone lookup table.

    ``_phi`` is evaluated once on a dense mean grid; inversion is then a
    single ``np.interp`` in the log domain.  This replaces a 60-step
    vectorised bisection (60 ``_phi`` evaluations per call) that dominated
    the density-evolution runtime; the table is accurate to well below the
    threshold searches' 0.02 dB bisection tolerance.
    """
    global _PHI_INVERSE_TABLE
    if _PHI_INVERSE_TABLE is None:
        means = np.concatenate(([0.0], np.geomspace(1e-8, _MEAN_CLIP, 8192)))
        phis = _phi(means)
        # Enforce monotonicity across the small/large-mean branch switch.
        phis = np.minimum.accumulate(phis)
        log_phis = np.log(np.clip(phis, 1e-300, None))
        _PHI_INVERSE_TABLE = (log_phis[::-1].copy(), means[::-1].copy())
    value = np.clip(np.asarray(value, dtype=float), 1e-300, 1.0)
    log_phis, means = _PHI_INVERSE_TABLE
    return np.interp(np.log(value), log_phis, means)


@dataclass(frozen=True)
class DensityEvolutionResult:
    """Result of a density-evolution convergence check.

    Attributes
    ----------
    converged:
        True if the target error probability was reached.
    error_probability:
        Error probability of the tracked variables after the final
        iteration.
    iterations:
        Iterations actually performed.
    """

    converged: bool
    error_probability: float
    iterations: int


def _expand_edges(protograph: Protograph):
    """Edge list (check, variable) with parallel edges expanded."""
    checks, variables = np.nonzero(protograph.base_matrix)
    counts = protograph.base_matrix[checks, variables]
    edge_checks = np.repeat(checks, counts)
    edge_variables = np.repeat(variables, counts)
    return edge_checks, edge_variables


def protograph_de(protograph: Protograph, ebn0_db: float, rate: float,
                  max_iterations: int = 200, target_error: float = 1e-6,
                  known_variables: Optional[np.ndarray] = None,
                  tracked_variables: Optional[np.ndarray] = None
                  ) -> DensityEvolutionResult:
    """Run Gaussian-approximation DE on a protograph at a given Eb/N0.

    Parameters
    ----------
    protograph:
        The (possibly coupled) protograph.
    ebn0_db:
        Operating point.
    rate:
        Rate used to convert Eb/N0 into the channel LLR mean
        (``4 * R * Eb/N0`` for BPSK over AWGN).
    known_variables:
        Boolean mask of variables assumed perfectly known (used by the
        window-decoding analysis for previously decoded blocks).
    tracked_variables:
        Boolean mask of the variables whose error probability decides
        convergence (default: all unknown variables).
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    edge_checks, edge_variables = _expand_edges(protograph)
    n_edges = edge_checks.size
    n_variables = protograph.n_variables
    if known_variables is None:
        known_variables = np.zeros(n_variables, dtype=bool)
    known_variables = np.asarray(known_variables, dtype=bool)
    if known_variables.size != n_variables:
        raise ValueError("known_variables mask has the wrong length")
    if tracked_variables is None:
        tracked_variables = ~known_variables
    tracked_variables = np.asarray(tracked_variables, dtype=bool)
    if not np.any(tracked_variables):
        raise ValueError("at least one variable must be tracked")

    channel_mean = 4.0 * rate * float(db_to_linear(ebn0_db))
    channel_means = np.where(known_variables, _MEAN_CLIP, channel_mean)

    variable_to_check = np.full(n_edges, 0.0)
    error_probability = 1.0
    iterations_done = 0
    for iteration in range(1, max_iterations + 1):
        iterations_done = iteration
        # Variable-node update: channel mean plus all incoming check means
        # except the edge's own.
        if iteration == 1:
            check_to_variable = np.zeros(n_edges)
        variable_totals = np.bincount(edge_variables, weights=check_to_variable,
                                      minlength=n_variables)
        variable_to_check = (channel_means[edge_variables]
                             + variable_totals[edge_variables]
                             - check_to_variable)
        variable_to_check = np.clip(variable_to_check, 0.0, _MEAN_CLIP)
        # Check-node update via the phi function, excluding the own edge.
        phis = _phi(variable_to_check)
        log_one_minus = np.log(np.clip(1.0 - phis, 1e-300, 1.0))
        check_totals = np.bincount(edge_checks, weights=log_one_minus,
                                   minlength=protograph.n_checks)
        excluded = check_totals[edge_checks] - log_one_minus
        check_to_variable = _phi_inverse(1.0 - np.exp(excluded))
        check_to_variable = np.clip(check_to_variable, 0.0, _MEAN_CLIP)
        # Posterior error probability of the tracked variables.
        posterior_totals = np.bincount(edge_variables,
                                       weights=check_to_variable,
                                       minlength=n_variables)
        posterior_means = channel_means + posterior_totals
        tracked_means = posterior_means[tracked_variables]
        error_probability = float(np.max(ndtr(-np.sqrt(tracked_means / 2.0))))
        if error_probability <= target_error:
            return DensityEvolutionResult(converged=True,
                                          error_probability=error_probability,
                                          iterations=iterations_done)
    return DensityEvolutionResult(converged=False,
                                  error_probability=error_probability,
                                  iterations=iterations_done)


def gaussian_de_threshold(protograph: Protograph, rate: float,
                          low_db: float = 0.0, high_db: float = 8.0,
                          tolerance_db: float = 0.02,
                          max_iterations: int = 200,
                          target_error: float = 1e-6) -> float:
    """BP threshold (smallest converging Eb/N0) of a protograph ensemble."""
    if low_db >= high_db:
        raise ValueError("low_db must be below high_db")
    if not protograph_de(protograph, high_db, rate,
                         max_iterations=max_iterations,
                         target_error=target_error).converged:
        raise ValueError("density evolution does not converge at high_db; "
                         "raise the search ceiling")
    low, high = low_db, high_db
    while high - low > tolerance_db:
        mid = 0.5 * (low + high)
        result = protograph_de(protograph, mid, rate,
                               max_iterations=max_iterations,
                               target_error=target_error)
        if result.converged:
            high = mid
        else:
            low = mid
    return float(high)


def window_de_threshold(spreading: EdgeSpreading, window_size: int,
                        rate: float, termination_length: Optional[int] = None,
                        low_db: float = 0.0, high_db: float = 8.0,
                        tolerance_db: float = 0.02,
                        max_iterations: int = 200,
                        target_error: float = 1e-6) -> float:
    """Window-decoding threshold of a coupled ensemble (steady state).

    The analysis considers a window positioned in the middle of a long
    coupled chain: the ``mcc`` blocks before the window are perfectly known
    (they have been decoded), the window spans ``W`` blocks, and only the
    target (first) block of the window must reach the target error
    probability.  Larger windows see more future checks and therefore
    achieve a lower threshold — with the diminishing returns Fig. 10 shows.
    """
    memory = spreading.memory
    if window_size < memory + 1:
        raise ValueError("window size must be at least the coupling memory + 1")
    if termination_length is None:
        termination_length = max(3 * window_size, 4 * (memory + 1))
    if termination_length < window_size + 2 * memory:
        raise ValueError("termination length too small for the window analysis")
    coupled = coupled_protograph(spreading, termination_length)
    n_variables_per_block = spreading.components[0].shape[1]
    # Place the window after `memory` decoded blocks, away from termination.
    target_block = memory
    known = np.zeros(coupled.n_variables, dtype=bool)
    for block in range(target_block):
        start = block * n_variables_per_block
        known[start:start + n_variables_per_block] = True
    # Blocks beyond the window provide no information: model them as erased
    # by excluding their checks — equivalently, mark them known=False but
    # track only the target block and restrict the protograph to the window.
    first_block = 0
    last_block = target_block + window_size - 1
    column_mask = np.zeros(coupled.n_variables, dtype=bool)
    for block in range(first_block, last_block + 1):
        start = block * n_variables_per_block
        column_mask[start:start + n_variables_per_block] = True
    n_checks_per_block = spreading.components[0].shape[0]
    row_start = target_block * n_checks_per_block
    row_stop = (target_block + window_size) * n_checks_per_block
    window_matrix = coupled.base_matrix[row_start:row_stop][:, column_mask]
    window_protograph = Protograph(window_matrix)
    window_known = known[column_mask]
    tracked = np.zeros(window_protograph.n_variables, dtype=bool)
    target_start = target_block * n_variables_per_block
    tracked_slice = slice(target_start, target_start + n_variables_per_block)
    tracked[tracked_slice] = True

    def converges(ebn0_db: float) -> bool:
        return protograph_de(window_protograph, ebn0_db, rate,
                             max_iterations=max_iterations,
                             target_error=target_error,
                             known_variables=window_known,
                             tracked_variables=tracked).converged

    if not converges(high_db):
        raise ValueError("window DE does not converge at high_db; raise the "
                         "search ceiling")
    low, high = low_db, high_db
    while high - low > tolerance_db:
        mid = 0.5 * (low + high)
        if converges(mid):
            high = mid
        else:
            low = mid
    return float(high)
