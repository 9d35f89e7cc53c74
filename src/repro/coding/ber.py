"""Monte-Carlo bit-error-rate measurement over a pluggable channel frontend.

The harness transmits the all-zero codeword (valid for any linear code and
any symmetric decoder, which belief propagation with symmetric channel LLRs
is), runs it through a :class:`repro.phy.frontend.ChannelFrontend` at a
given Eb/N0, decodes the returned LLRs with an arbitrary decoder callback
and counts residual bit errors.  The default frontend is the idealized
:class:`~repro.phy.frontend.BpskAwgnFrontend` — bit-exact with the
historical AWGN/BPSK noise path at a fixed seed — while
:class:`~repro.phy.frontend.OneBitWaveformFrontend` measures the same code
over the paper's actual 1-bit oversampled ASK waveform chain (which is not
output-symmetric; the frontend's internal scrambler restores the all-zero
codeword's validity, see its docstring).  On top of the raw BER
measurement it provides the required-Eb/N0 search used for Fig. 10: the
smallest Eb/N0 at which the measured BER falls below a target.

Simulation is *batched*: noise is generated as a ``(B, n)`` matrix and
decoded through a batch decoder callback (e.g.
:meth:`repro.coding.window_decoder.WindowDecoder.decode_bits_batch`) when
one is available, falling back to row-by-row decoding otherwise.  A
``(B, n)`` normal draw consumes the generator stream exactly like ``B``
consecutive ``(n,)`` draws, so — given a batch decoder that is
row-equivalent to the scalar one — the batched path returns the same
:class:`BerPoint` as the original per-codeword loop at a fixed seed (the
test suite keeps that loop as its oracle).  For the same reason
:meth:`BerSimulator.simulate_sweep` can decode the codewords of several
fixed-count points in one call and still return each point's
:meth:`~BerSimulator.simulate` result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

from repro.utils.rng import RngLike, ensure_rng, ensure_seed_sequence
from repro.utils.statistics import StoppingRule
from repro.utils.units import db_to_linear
from repro.utils.validation import check_positive, check_probability

DecoderCallback = Callable[[np.ndarray], np.ndarray]
BatchDecoderCallback = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BerPoint:
    """BER measurement at one operating point.

    Attributes
    ----------
    ebn0_db:
        Operating Eb/N0.
    bit_error_rate:
        Measured bit error rate (errors / transmitted bits).  When the
        measurement was cut short by ``max_bit_errors`` this estimator
        carries the stopping-rule bias documented on
        :meth:`BerSimulator.simulate`.
    block_error_rate:
        Fraction of codewords with at least one residual error.
    n_bits:
        Total number of coded bits transmitted.
    n_bit_errors:
        Total number of residual bit errors.
    n_codewords:
        Number of codewords simulated.
    truncated:
        True when a stopping rule (``max_bit_errors``) cut the run short
        of its codeword budget — the estimators then carry the
        stopping-rule bias above, and downstream consumers can tell
        biased from unbiased estimates.
    """

    ebn0_db: float
    bit_error_rate: float
    block_error_rate: float
    n_bits: int
    n_bit_errors: int
    n_codewords: int
    truncated: bool = False


@dataclass
class BerTally:
    """Mergeable, serializable running totals of a BER measurement.

    A tally is the *resumable core* of a measurement: pure error counts,
    with no knowledge of how many codewords the caller eventually wants.
    :meth:`BerSimulator.simulate_tally` appends batches to a tally,
    :meth:`BerSimulator.simulate_adaptive` appends until a
    :class:`repro.utils.statistics.StoppingRule` is satisfied, and the
    adaptive sweep path of :mod:`repro.core.engine` persists tallies in a
    :class:`~repro.core.store.RunStore` so a later, tighter precision
    request *resumes* from the stored counts instead of recomputing them.

    Attributes
    ----------
    n_codewords / n_bits / n_bit_errors / n_frame_errors:
        Running totals.  A *frame* error is a codeword with at least one
        residual bit error.
    n_batches:
        Number of full batches appended by the *adaptive* path — the
        resume cursor into the per-batch seed stream (see
        :func:`batch_seed_sequence`).  The fixed-count path consumes one
        sequential generator stream and does not use it.
    truncated:
        True when an error-count stopping rule cut a contributing run
        (sticky under :meth:`merge`).
    """

    n_codewords: int = 0
    n_bits: int = 0
    n_bit_errors: int = 0
    n_frame_errors: int = 0
    n_batches: int = 0
    truncated: bool = False

    # ------------------------------------------------------------------
    @property
    def bit_error_rate(self) -> float:
        """Errors per transmitted bit (0.0 on an empty tally)."""
        return self.n_bit_errors / self.n_bits if self.n_bits else 0.0

    @property
    def frame_error_rate(self) -> float:
        """Frame (codeword) errors per codeword (0.0 on an empty tally)."""
        return (self.n_frame_errors / self.n_codewords
                if self.n_codewords else 0.0)

    # ------------------------------------------------------------------
    def merge(self, other: "BerTally") -> "BerTally":
        """Combine two tallies of the *same* operating point, in place.

        Counts add, batch cursors add (the merged tally's resume cursor
        assumes the two halves covered disjoint batch ranges), and the
        truncation flag is sticky.  Returns ``self`` for chaining.
        """
        self.n_codewords += other.n_codewords
        self.n_bits += other.n_bits
        self.n_bit_errors += other.n_bit_errors
        self.n_frame_errors += other.n_frame_errors
        self.n_batches += other.n_batches
        self.truncated = self.truncated or other.truncated
        return self

    def copy(self) -> "BerTally":
        """An independent copy of the running totals."""
        return BerTally(**self.to_dict())

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable form (round-trips via
        :meth:`from_dict`)."""
        return {"n_codewords": int(self.n_codewords),
                "n_bits": int(self.n_bits),
                "n_bit_errors": int(self.n_bit_errors),
                "n_frame_errors": int(self.n_frame_errors),
                "n_batches": int(self.n_batches),
                "truncated": bool(self.truncated)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BerTally":
        """Rebuild a tally from :meth:`to_dict` output (validating it)."""
        fields = {"n_codewords", "n_bits", "n_bit_errors",
                  "n_frame_errors", "n_batches", "truncated"}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(
                f"unknown BerTally field(s): {sorted(unknown)}")
        tally = cls(**{name: data.get(name, 0) for name in fields
                       if name != "truncated"},
                    truncated=bool(data.get("truncated", False)))
        for name in ("n_codewords", "n_bits", "n_bit_errors",
                     "n_frame_errors", "n_batches"):
            value = getattr(tally, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"BerTally.{name} must be a non-negative "
                                 f"integer, got {value!r}")
            setattr(tally, name, int(value))
        return tally

    # ------------------------------------------------------------------
    def to_point(self, ebn0_db: float) -> BerPoint:
        """The :class:`BerPoint` these totals describe."""
        if self.n_codewords < 1:
            raise ValueError("cannot summarise an empty tally")
        return BerPoint(ebn0_db=float(ebn0_db),
                        bit_error_rate=self.n_bit_errors / self.n_bits,
                        block_error_rate=(self.n_frame_errors
                                          / self.n_codewords),
                        n_bits=self.n_bits,
                        n_bit_errors=self.n_bit_errors,
                        n_codewords=self.n_codewords,
                        truncated=self.truncated)


def batch_seed_sequence(root: np.random.SeedSequence,
                        batch_index: int) -> np.random.SeedSequence:
    """Seed sequence of one adaptive batch, independent of history.

    Batch ``b`` always draws from the child ``root.spawn_key + (b,)`` of
    the root's entropy — the same stream whether it is generated in the
    first run of a point or in a resume that loaded batches ``0..b-1``
    from a store.  (Equivalent to ``root.spawn(b+1)[b]`` without mutating
    the root's spawn counter, so resumed and one-shot runs draw identical
    noise.)
    """
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(int(k) for k in root.spawn_key)
        + (int(batch_index),))


class BerSimulator:
    """All-zero-codeword BER simulator for a fixed code/decoder pair.

    Parameters
    ----------
    codeword_length:
        Number of coded bits per transmission.
    rate:
        Code rate used in the Eb/N0 to noise-variance conversion
        (``sigma^2 = 1 / (2 * R * Eb/N0)`` for unit-energy BPSK).
    decode:
        Callable mapping a vector of channel LLRs to hard bit decisions.
    decode_batch:
        Optional callable mapping a ``(B, n)`` LLR matrix to ``(B, n)``
        hard decisions; when given, :meth:`simulate` decodes whole noise
        batches in one call, which is several times faster for the
        belief-propagation decoders in this package.
    batch_size:
        Codewords per generated noise batch in :meth:`simulate`.
    frontend:
        Channel frontend carrying the coded bits
        (:class:`repro.phy.frontend.ChannelFrontend`).  ``None`` builds a
        :class:`~repro.phy.frontend.BpskAwgnFrontend` at this simulator's
        rate — bit-exact with the pre-frontend implementation at a fixed
        seed (regression-tested).  The frontend's ``rate`` must match the
        simulator's (both feed the same Eb/N0 conversion).
    """

    def __init__(self, codeword_length: int, rate: float,
                 decode: DecoderCallback,
                 decode_batch: Optional[BatchDecoderCallback] = None,
                 batch_size: int = 32, frontend=None) -> None:
        from repro.phy.frontend import BpskAwgnFrontend

        check_positive("codeword_length", codeword_length)
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must lie in (0, 1]")
        check_positive("batch_size", batch_size)
        self.codeword_length = int(codeword_length)
        self.rate = float(rate)
        self.decode = decode
        self.decode_batch = decode_batch
        self.batch_size = int(batch_size)
        if frontend is None:
            frontend = BpskAwgnFrontend(rate=self.rate)
        self._check_rate(frontend)
        self.frontend = frontend

    def _check_rate(self, frontend) -> None:
        """Refuse a frontend whose Eb/N0 conversion uses another rate."""
        if abs(float(frontend.rate) - self.rate) > 1e-12:
            raise ValueError(
                f"frontend rate {frontend.rate} does not match the "
                f"simulator rate {self.rate}")

    def noise_std(self, ebn0_db: float) -> float:
        """Noise standard deviation at an Eb/N0 operating point."""
        ebn0 = float(db_to_linear(ebn0_db))
        return float(np.sqrt(1.0 / (2.0 * self.rate * ebn0)))

    def channel_llrs(self, received: np.ndarray, ebn0_db: float) -> np.ndarray:
        """LLRs for received BPSK samples (+1 encodes bit 0)."""
        sigma = self.noise_std(ebn0_db)
        return 2.0 * np.asarray(received, dtype=float) / sigma ** 2

    # ------------------------------------------------------------------
    def _decode_rows(self, llr_matrix: np.ndarray) -> np.ndarray:
        """Hard decisions for a ``(B, n)`` LLR matrix."""
        if self.decode_batch is not None:
            decisions = np.asarray(self.decode_batch(llr_matrix))
            if decisions.shape != llr_matrix.shape:
                raise ValueError("batch decoder returned the wrong shape")
            return decisions
        decisions = np.empty(llr_matrix.shape, dtype=np.int8)
        for row, llrs in enumerate(llr_matrix):
            decided = np.asarray(self.decode(llrs)).reshape(-1)
            if decided.size != self.codeword_length:
                raise ValueError("decoder returned the wrong number of bits")
            decisions[row] = decided
        return decisions

    def _transmit(self, frontend, batch: int, ebn0_db: float,
                  generator: np.random.Generator) -> np.ndarray:
        """LLRs of ``batch`` all-zero codewords sent through ``frontend``."""
        codewords = np.zeros((batch, self.codeword_length), dtype=np.int8)
        llrs = np.asarray(frontend.transmit_llrs(
            codewords, ebn0_db, generator), dtype=float)
        if llrs.shape != codewords.shape:
            raise ValueError("frontend returned the wrong LLR shape")
        return llrs

    def _tally_rows(self, decisions: np.ndarray, tally: BerTally,
                    max_bit_errors: Optional[int]) -> bool:
        """Add decoded rows to ``tally`` in row order; True when the
        error-count stopping rule fired (which truncates the tally)."""
        errors_per_row = np.count_nonzero(decisions, axis=1)
        for errors in errors_per_row:
            errors = int(errors)
            tally.n_bit_errors += errors
            tally.n_bits += self.codeword_length
            tally.n_frame_errors += int(errors > 0)
            tally.n_codewords += 1
            if max_bit_errors is not None \
                    and tally.n_bit_errors >= max_bit_errors:
                tally.truncated = True
                return True
        return False

    def _append_batch(self, batch: int, ebn0_db: float,
                      generator: np.random.Generator, tally: BerTally,
                      max_bit_errors: Optional[int]) -> bool:
        """Transmit/decode one batch into ``tally``; True when the
        error-count stopping rule fired (which truncates the tally)."""
        llrs = self._transmit(self.frontend, batch, ebn0_db, generator)
        return self._tally_rows(self._decode_rows(llrs), tally,
                                max_bit_errors)

    def simulate_tally(self, ebn0_db: float, tally: BerTally,
                       rng: RngLike = None, n_codewords: int = 50,
                       max_bit_errors: Optional[int] = None) -> BerTally:
        """Append ``n_codewords`` codewords to a running tally.

        The resumable core of the fixed-count measurement: batches of up
        to ``batch_size`` codewords are transmitted through the frontend
        on *one* sequential generator stream and accumulated into
        ``tally`` (in place; also returned for chaining).
        ``max_bit_errors`` stops appending — and marks the tally
        truncated — once the tally's **cumulative** error count reaches
        the limit, matching the historical :meth:`simulate` behaviour on
        a fresh tally.

        For precision-driven (rather than count-driven) accumulation
        with resumable per-batch seeding, see :meth:`simulate_adaptive`.
        """
        check_positive("n_codewords", n_codewords)
        generator = ensure_rng(rng)
        n_codewords = int(n_codewords)
        appended = 0
        stop = (max_bit_errors is not None
                and tally.n_bit_errors >= max_bit_errors)
        while appended < n_codewords and not stop:
            batch = min(self.batch_size, n_codewords - appended)
            before = tally.n_codewords
            stop = self._append_batch(batch, ebn0_db, generator, tally,
                                      max_bit_errors)
            appended += tally.n_codewords - before
        return tally

    def simulate(self, ebn0_db: float, n_codewords: int = 50,
                 rng: RngLike = None,
                 max_bit_errors: Optional[int] = None) -> BerPoint:
        """Measure the BER at one Eb/N0 (batched path).

        A thin wrapper around :meth:`simulate_tally` on a fresh
        :class:`BerTally` — byte-identical to the pre-tally
        implementation at a fixed seed (regression-tested).  All-zero
        codewords are carried through the configured frontend and decoded
        in batches of ``batch_size``; the per-codeword bookkeeping (and
        in particular the ``max_bit_errors`` stopping rule) is applied
        row by row in transmission order, so with the default BPSK/AWGN
        frontend the returned :class:`BerPoint` is identical to the
        original per-codeword loop at the same seed.

        ``max_bit_errors`` stops the measurement once enough errors have
        been collected (useful inside the required-Eb/N0 search) and
        marks the result ``truncated``.  Note the stopping rule biases
        the reported ``bit_error_rate``: the run always ends on a
        codeword that contributed errors, so the error-per-bit ratio is
        conditioned on that final failure and overestimates the true BER
        — materially so when only a few codewords are simulated before
        stopping.  Error-count stopping is therefore appropriate for
        threshold searches (where only the comparison against a target
        matters) but final reported curves should run with
        ``max_bit_errors=None``.
        """
        tally = self.simulate_tally(ebn0_db, BerTally(), rng=rng,
                                    n_codewords=n_codewords,
                                    max_bit_errors=max_bit_errors)
        return tally.to_point(ebn0_db)

    def simulate_sweep(self, ebn0_dbs, rngs, frontends,
                       n_codewords: int = 50) -> list:
        """Fixed-count BER points whose codewords are decoded together.

        Point ``i`` is exactly the :class:`BerPoint` of
        ``simulate(ebn0_dbs[i], n_codewords, rngs[i])`` on this simulator
        with ``frontends[i]`` as its frontend.  Each point's batches of
        up to ``batch_size`` codewords are drawn in order on its own
        generator — decoding draws nothing — and its rows are tallied in
        row order.  Only the decoding is shared, one round of batches at
        a time: batch ``r`` of every point goes to the decoder as one
        ``(len(ebn0_dbs) * size, n)`` batch.  A batch decoder so pays its
        per-call overhead once per round, not once per batch of each
        point, and the rows held at once are bounded by the points ×
        ``batch_size``, whatever ``n_codewords``.
        """
        check_positive("n_codewords", n_codewords)
        n_codewords = int(n_codewords)
        if not len(ebn0_dbs) == len(rngs) == len(frontends):
            raise ValueError("ebn0_dbs, rngs and frontends must have one "
                             "entry per point")
        for frontend in frontends:
            self._check_rate(frontend)
        generators = [ensure_rng(rng) for rng in rngs]
        if len({id(generator) for generator in generators}) \
                < len(generators):
            raise ValueError("each point needs its own generator")
        tallies = [BerTally() for _ in ebn0_dbs]
        for start in range(0, n_codewords, self.batch_size):
            size = min(self.batch_size, n_codewords - start)
            decisions = self._decode_rows(np.concatenate([
                self._transmit(frontend, size, ebn0_db, generator)
                for ebn0_db, generator, frontend
                in zip(ebn0_dbs, generators, frontends)]))
            for index, tally in enumerate(tallies):
                self._tally_rows(decisions[index * size:(index + 1) * size],
                                 tally, None)
        return [tally.to_point(ebn0_db)
                for ebn0_db, tally in zip(ebn0_dbs, tallies)]

    def simulate_adaptive(self, ebn0_db: float, rule: StoppingRule,
                          seed_sequence, tally: Optional[BerTally] = None
                          ) -> BerTally:
        """Append full batches until a stopping rule is satisfied.

        The precision-driven measurement core: batches of exactly
        ``batch_size`` codewords are appended to ``tally`` (a fresh one
        when ``None``) until ``rule`` — a
        :class:`repro.utils.statistics.StoppingRule` over the tally's
        cumulative counts — is satisfied.  ``rule.max_units`` acts as a
        soft cap checked at batch boundaries, so the batch schedule (and
        therefore the noise every batch sees) is independent of the
        precision target.

        Unlike the fixed-count path, each batch draws from its own
        generator derived via :func:`batch_seed_sequence` from
        ``seed_sequence`` (a :class:`numpy.random.SeedSequence`, or any
        :data:`~repro.utils.rng.RngLike` normalised through
        :func:`~repro.utils.rng.ensure_seed_sequence`) at the tally's
        ``n_batches`` cursor.  Resuming from a stored tally therefore
        draws *exactly* the noise a single uninterrupted run would have
        drawn — tightening the rule later only appends the increment.
        """
        if tally is None:
            tally = BerTally()
        if not isinstance(seed_sequence, np.random.SeedSequence):
            seed_sequence = ensure_seed_sequence(seed_sequence)
        while not rule.satisfied(tally.n_bit_errors, tally.n_bits,
                                 tally.n_codewords):
            child = batch_seed_sequence(seed_sequence, tally.n_batches)
            self._append_batch(self.batch_size, ebn0_db,
                               np.random.default_rng(child), tally, None)
            tally.n_batches += 1
        return tally

    def simulate_batches(self, ebn0_db: float, seed_sequence,
                         batch_indices) -> list:
        """Measure explicit adaptive batches: one fresh tally per index.

        The shardable core of :meth:`simulate_adaptive`.  Batch ``b`` of
        an adaptive point is fully determined by ``(seed_sequence, b)``
        — :func:`batch_seed_sequence` derives its generator from the
        batch *index*, not from which batches ran before or where — so
        disjoint index ranges can be evaluated by different processes
        and merged.  Each returned :class:`BerTally` covers exactly one
        full batch (``n_batches == 1``); merging them **in index order**
        onto a resume tally whose cursor equals the first index yields
        byte-for-byte the tally a serial :meth:`simulate_adaptive` run
        accumulates over the same batches.  The adaptive sweep engine
        uses this to shard a deep point across its worker pool
        (:meth:`repro.core.engine.SweepEngine.sweep_adaptive`).
        """
        if not isinstance(seed_sequence, np.random.SeedSequence):
            seed_sequence = ensure_seed_sequence(seed_sequence)
        tallies = []
        for batch_index in batch_indices:
            tally = BerTally()
            child = batch_seed_sequence(seed_sequence, int(batch_index))
            self._append_batch(self.batch_size, ebn0_db,
                               np.random.default_rng(child), tally, None)
            tally.n_batches = 1
            tallies.append(tally)
        return tallies

    def ber_curve(self, ebn0_grid, n_codewords: int = 50,
                  rng: RngLike = None, engine=None) -> list:
        """Measure the BER over a grid of Eb/N0 values.

        The grid is evaluated through a
        :class:`repro.core.engine.SweepEngine` (a private serial one by
        default): every Eb/N0 point receives an independent generator
        spawned from ``rng`` via :class:`numpy.random.SeedSequence`, so
        points share no random stream and the curve is reproducible
        point-by-point for an integer seed.  Pass a shared engine to
        enable caching or process parallelism.
        """
        from repro.core.engine import SweepEngine

        if engine is None:
            engine = SweepEngine()
        worker = _BerPointWorker(self, int(n_codewords))
        points = [{"ebn0_db": float(ebn0)} for ebn0 in ebn0_grid]
        return engine.sweep_values(worker, points, rng=rng)


@dataclass(frozen=True)
class _BerPointWorker:
    """Picklable sweep worker measuring one BER point."""

    simulator: BerSimulator
    n_codewords: int
    max_bit_errors: Optional[int] = None

    def __call__(self, params, rng) -> BerPoint:
        return self.simulator.simulate(params["ebn0_db"],
                                       n_codewords=self.n_codewords,
                                       rng=rng,
                                       max_bit_errors=self.max_bit_errors)


def required_ebn0_db(simulator: BerSimulator, target_ber: float,
                     low_db: float = 0.0, high_db: float = 8.0,
                     tolerance_db: float = 0.1, n_codewords: int = 40,
                     rng: RngLike = None,
                     max_bit_errors: Optional[int] = None) -> float:
    """Smallest Eb/N0 (within tolerance) whose measured BER meets a target.

    A bisection over Eb/N0; the BER at each probe is measured with
    ``n_codewords`` codewords, so the resolution of the answer is limited
    by ``1 / (n_codewords * n)`` — choose the target accordingly (the
    benchmark uses 1e-3, see EXPERIMENTS.md for the rationale).

    ``max_bit_errors`` is forwarded to each probe: probes far below the
    threshold accumulate errors quickly and stop after a few codewords
    instead of decoding all ``n_codewords`` at the iteration limit, which
    is where a bisection spends most of its time.  Pick it a few times
    larger than ``target_ber * n_codewords * n`` so near-threshold probes
    (the ones that decide the answer) run to completion and keep an
    (almost) unbiased estimate; see :meth:`BerSimulator.simulate` for the
    stopping-rule bias this bounds.

    Randomness: reproducibility is opt-in — the default ``rng=None``
    draws fresh entropy (consistent with every other stochastic API in
    the package); pass an integer seed for a repeatable search.  Each
    bisection probe runs with its own generator spawned from a root
    :class:`numpy.random.SeedSequence`, so probes are statistically
    independent and no probe's outcome depends on how much stream an
    earlier probe consumed.
    """
    check_probability("target_ber", target_ber)
    if target_ber <= 0.0:
        raise ValueError("target_ber must be strictly positive")
    if low_db >= high_db:
        raise ValueError("low_db must be below high_db")
    root = ensure_seed_sequence(rng)

    def meets_target(ebn0: float) -> bool:
        probe_rng = np.random.default_rng(root.spawn(1)[0])
        point = simulator.simulate(ebn0, n_codewords=n_codewords,
                                   rng=probe_rng,
                                   max_bit_errors=max_bit_errors)
        return point.bit_error_rate <= target_ber

    if not meets_target(high_db):
        raise ValueError("the decoder misses the BER target even at high_db")
    low, high = low_db, high_db
    while high - low > tolerance_db:
        mid = 0.5 * (low + high)
        if meets_target(mid):
            high = mid
        else:
            low = mid
    return float(high)
