"""Vectorized trellis kernels for the 1-bit oversampled finite-state channel.

One :class:`TrellisKernel` serves every trellis algorithm in the PHY:

* :meth:`TrellisKernel.viterbi` — maximum-likelihood sequence detection
  (hard symbol decisions), the engine behind
  :class:`repro.phy.receiver.ViterbiSequenceDetector`;
* :meth:`TrellisKernel.symbol_log_posteriors` — max-log BCJR a-posteriori
  symbol probabilities, the soft output consumed by
  :class:`repro.phy.frontend.OneBitWaveformFrontend`;
* :meth:`TrellisKernel.symbolwise_log_marginals` — the state-marginalised
  (ISI-as-dither) per-symbol likelihoods of the symbol-by-symbol receiver,
  computed with ``logsumexp`` so strongly negative observation
  log-probabilities cannot underflow to ``-inf``.

All methods take batched observation log-probabilities of shape
``(B, n, n_states, order)`` (``B`` codewords/sequences on the leading
axis) and run a Python loop only over the ``n`` symbol periods; the state
and batch dimensions are pure NumPy array operations.

Broadcast recursions
--------------------
The kernel requires the canonical shift-register state encoding of
:class:`repro.phy.channel_model.OversampledOneBitChannel`
(``next_state = input * order**(memory-1) + state // order``) and rejects
any other trellis.  Its predecessor table has closed form: writing
``S_h = order**(memory-1)``, state ``s' = g*S_h + h`` has predecessors
``h*order + j`` and arriving input ``g``.  Both trellis sweeps therefore
need *no* gathers at all — reshaping the metric vector to
``(B, S_h, order)`` and broadcasting over the new-input axis visits
exactly the elements the historical fancy-indexed formulation gathered,
in the same order, so results stay bit-identical while the per-step data
movement disappears.

Dtype and buffers
-----------------
``dtype=`` selects the metric precision: the float64 default is
bit-identical to the historical kernels, float32 halves the memory
traffic of the sweeps and is validated statistically.  Work buffers are
cached per instance and per shape, so repeated equal-sized calls (the
sweep pattern) do not re-allocate; large batches are processed in
independent cache-sized tiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from repro.phy.channel_model import OversampledOneBitChannel
from repro.utils.validation import resolve_dtype


@dataclass
class TrellisKernel:
    """Batched trellis algorithms over one finite-state channel.

    Parameters
    ----------
    channel:
        The finite-state channel whose trellis (state count, successor
        structure, observation model) the kernel operates on; its
        trellis must be the canonical shift register.
    dtype:
        Metric dtype: ``"float64"`` (bit-exact default) or ``"float32"``.
    """

    channel: OversampledOneBitChannel
    dtype: object = None
    _pred_state: np.ndarray = field(init=False, repr=False)
    _pred_input: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.dtype = resolve_dtype(self.dtype)
        self._buffers = {}
        order = self.channel.order
        n_states = self.channel.n_states
        if self.channel.memory == 0:
            self._pred_input = np.zeros(1, dtype=np.int64)
            self._pred_state = np.zeros((1, order), dtype=np.int64)
            return
        # Canonical shift register: next_state(s, g) = g*S_h + s // J, so
        # state g*S_h + h has predecessors h*J + j (ascending, matching
        # the reference loop's tie-breaks) and arriving input g.
        sub_states = n_states // order
        states = np.arange(n_states)
        successors = np.array(
            [[self.channel.next_state(state, inp) for inp in range(order)]
             for state in range(n_states)], dtype=np.int64)
        canonical = np.arange(order)[None, :] * sub_states \
            + (states // order)[:, None]
        if not np.array_equal(successors, canonical):
            raise ValueError(
                "channel trellis is not the canonical shift register "
                "next_state = input * order**(memory-1) + state // order")
        self._pred_state = (states % sub_states)[:, None] * order \
            + np.arange(order)
        # Input that *arrives in* each state (its most-recent symbol).
        self._pred_input = states // sub_states

    # ------------------------------------------------------------------
    def _buffer(self, name: str, shape: tuple, dtype=None):
        """Per-instance work array, reused across equal-shaped calls."""
        dtype = self.dtype if dtype is None else dtype
        key = (name, shape, np.dtype(dtype).name)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def _tile_size(self, n_symbols: int) -> int:
        # Bound the dominant (n, B, n_states, order) reordered-observation
        # buffer to a few MB per tile.
        per_row = max(1, n_symbols * self.channel.n_states
                      * self.channel.order * self.dtype.itemsize)
        return max(8, (16 << 20) // per_row)

    # ------------------------------------------------------------------
    def log_observations(self, signs: np.ndarray) -> np.ndarray:
        """Batched ``log P(z_k | state, input)`` for sign blocks.

        ``signs`` has shape ``(..., n, oversampling)``; the result has
        shape ``(..., n, n_states, order)``.
        """
        return self.channel.log_observation_probabilities(signs)

    def _as_batch(self, log_obs: np.ndarray) -> tuple:
        log_obs = np.asarray(log_obs, dtype=self.dtype)
        if log_obs.ndim == 3:
            return log_obs[None], True
        if log_obs.ndim != 4:
            raise ValueError(
                "log_obs must have shape (n, S, M) or (B, n, S, M), got "
                f"{log_obs.shape}")
        return log_obs, False

    def _initial_metrics(self, n_rows: int, initial: str) -> np.ndarray:
        n_states = self.channel.n_states
        if initial == "zero-state":
            metrics = np.full((n_rows, n_states), -np.inf, dtype=self.dtype)
            metrics[:, 0] = 0.0
            return metrics
        if initial == "uniform":
            return np.zeros((n_rows, n_states), dtype=self.dtype)
        raise ValueError("initial must be 'zero-state' or 'uniform'")

    def _tiled(self, log_obs: np.ndarray, tile_fn, initial: str):
        n_rows, n_symbols = log_obs.shape[:2]
        tile = self._tile_size(n_symbols)
        if n_rows <= tile:
            return tile_fn(log_obs, initial)
        parts = [tile_fn(log_obs[start:start + tile], initial)
                 for start in range(0, n_rows, tile)]
        return np.concatenate(parts, axis=0)

    def _reordered_observations(self, log_obs: np.ndarray, name: str):
        """Observations as ``(n, B, order, S_h, order)`` — predecessor
        order without a gather: element ``[k, b, g, h, j]`` is the branch
        metric of predecessor ``h*J + j`` into state ``g*S_h + h``."""
        n_rows, n_symbols, n_states, order = log_obs.shape
        sub_states = n_states // order
        view = log_obs.reshape(n_rows, n_symbols, sub_states, order, order)
        transposed = view.transpose(1, 0, 4, 2, 3)
        out = self._buffer(name, transposed.shape)
        out[...] = transposed
        return out

    # ------------------------------------------------------------------
    def viterbi(self, log_obs: np.ndarray,
                initial: str = "zero-state") -> np.ndarray:
        """ML symbol-index sequences for a batch of observation blocks.

        ``log_obs`` has shape ``(B, n, n_states, order)`` (a single
        ``(n, n_states, order)`` block is also accepted); the result has
        shape ``(B, n)`` (respectively ``(n,)``).  ``initial`` selects
        the start-of-block state prior: ``"zero-state"`` (transmissions
        start from the all-index-0 state, the convention of the loop
        reference detector) or ``"uniform"``.
        """
        log_obs, squeeze = self._as_batch(log_obs)
        if self.channel.memory == 0:
            detected = np.argmax(log_obs[:, :, 0, :], axis=-1)
            return detected[0] if squeeze else detected
        detected = self._tiled(log_obs, self._viterbi_tile, initial)
        return detected[0] if squeeze else detected

    def _viterbi_tile(self, log_obs: np.ndarray, initial: str) -> np.ndarray:
        n_rows, n_symbols, n_states, order = log_obs.shape
        sub_states = n_states // order
        pred_state = self._pred_state
        pred_input = self._pred_input
        backpointers = self._buffer("vit_bp",
                                    (n_symbols, n_rows, n_states),
                                    dtype=np.int32)
        metrics = self._initial_metrics(n_rows, initial)
        obs_re = self._reordered_observations(log_obs, "vit_obs")
        candidate = self._buffer("vit_cand",
                                 (n_rows, order, sub_states, order))
        for k in range(n_symbols):
            m_view = metrics.reshape(n_rows, 1, sub_states, order)
            np.add(m_view, obs_re[k], out=candidate)
            backpointers[k] = np.argmax(candidate, axis=-1).reshape(
                n_rows, n_states)
            metrics = np.max(candidate, axis=-1).reshape(n_rows, n_states)
        rows = np.arange(n_rows)
        state = np.argmax(metrics, axis=1)
        detected = np.empty((n_rows, n_symbols), dtype=np.int64)
        for k in range(n_symbols - 1, -1, -1):
            detected[:, k] = pred_input[state]
            state = pred_state[state, backpointers[k, rows, state]]
        return detected

    # ------------------------------------------------------------------
    def symbol_log_posteriors(self, log_obs: np.ndarray,
                              initial: str = "zero-state") -> np.ndarray:
        """Max-log BCJR a-posteriori symbol log-probabilities.

        Returns ``(B, n, order)`` (or ``(n, order)`` for a single block)
        holding ``log P(a_k = m | z_1^n)`` up to a per-symbol additive
        constant (each row is normalised to a zero maximum; only
        differences matter for the bit LLRs built on top).
        """
        log_obs, squeeze = self._as_batch(log_obs)
        if self.channel.memory == 0:
            app = log_obs[:, :, 0, :]
            app = app - app.max(axis=-1, keepdims=True)
            return app[0] if squeeze else app
        app = self._tiled(log_obs, self._posteriors_tile, initial)
        return app[0] if squeeze else app

    def _posteriors_tile(self, log_obs: np.ndarray,
                         initial: str) -> np.ndarray:
        n_rows, n_symbols, n_states, order = log_obs.shape
        sub_states = n_states // order
        # Forward pass (max-log alphas), one slice per symbol boundary.
        obs_re = self._reordered_observations(log_obs, "bcjr_obs")
        alphas = self._buffer("bcjr_alphas", (n_symbols + 1, n_rows, n_states))
        alphas[0] = self._initial_metrics(n_rows, initial)
        candidate = self._buffer("bcjr_cand",
                                 (n_rows, order, sub_states, order))
        for k in range(n_symbols):
            m_view = alphas[k].reshape(n_rows, 1, sub_states, order)
            np.add(m_view, obs_re[k], out=candidate)
            np.max(candidate, axis=-1,
                   out=alphas[k + 1].reshape(n_rows, order, sub_states))
        # Backward pass and per-symbol combination in the same sweep.
        # ``combined[b, q*J + r, m] = log_obs[b, k, q*J + r, m] +
        # beta[b, m*S_h + q]`` — the successor gather is a reshaped,
        # broadcast view of beta.
        step_re = log_obs.reshape(n_rows, n_symbols, sub_states, order,
                                  order)
        beta = np.zeros((n_rows, n_states), dtype=self.dtype)
        app = np.empty((n_rows, n_symbols, order), dtype=self.dtype)
        combined = self._buffer("bcjr_comb",
                                (n_rows, sub_states, order, order))
        scratch = self._buffer("bcjr_scratch",
                               (n_rows, sub_states, order, order))
        for k in range(n_symbols - 1, -1, -1):
            beta_view = beta.reshape(n_rows, order, sub_states) \
                .transpose(0, 2, 1)[:, :, None, :]     # (B, S_h, 1, M)
            alpha_view = alphas[k].reshape(n_rows, sub_states, order, 1)
            np.add(step_re[:, k], beta_view, out=combined)
            np.add(alpha_view, combined, out=scratch)
            app[:, k] = scratch.max(axis=(1, 2))
            np.max(combined, axis=3,
                   out=beta.reshape(n_rows, sub_states, order))
        app -= app.max(axis=-1, keepdims=True)
        return app

    # ------------------------------------------------------------------
    @staticmethod
    def symbolwise_log_marginals(log_obs: np.ndarray) -> np.ndarray:
        """State-marginalised per-symbol log-likelihoods (ISI as dither).

        ``log mean_state P(z_k | state, a)`` computed with ``logsumexp``,
        so blocks whose every-state likelihood is tiny yield very negative
        — but finite and correctly ordered — scores instead of the
        ``log(exp(...).mean())`` underflow of the historical
        implementation.  Shape ``(..., n, order)``.  Static — it needs
        only the observation array, no trellis structure.
        """
        log_obs = np.asarray(log_obs, dtype=float)
        n_states = log_obs.shape[-2]
        return logsumexp(log_obs, axis=-2) - np.log(n_states)
