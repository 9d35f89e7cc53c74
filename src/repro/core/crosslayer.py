"""Cross-layer bridge: PHY/coding operating point → NoC link error rate.

The paper's latency results (Fig. 8) assume ideal intra-stack channels,
yet its premise is that the board/stack interconnect is *wireless* — so
the NoC layer and the PHY/coding layers are coupled: a link running close
to the FEC threshold corrupts flits, and every corrupted flit costs a
retransmission cycle in the network.  This module computes that coupling
explicitly:

* :func:`link_operating_ebn0_db` — the Eb/N0 a wireless board link
  actually delivers, from the Section II link budget (reusing
  :class:`repro.core.link.WirelessBoardLink`).
* :func:`coded_residual_ber` — the post-decoding bit error rate of the
  Section V LDPC-CC at that Eb/N0.  By default a deterministic
  *threshold-anchored waterfall surrogate* is used (raw channel BER
  times an erfc roll-off centred on the density-evolution threshold of
  the configured window decoder); pass ``mc_codewords`` to measure it by
  Monte-Carlo through :meth:`CodingSpec.make_ber_simulator` instead, or
  a :class:`~repro.phy.frontend.ChannelFrontend` to measure it over the
  actual 1-bit oversampled waveform PHY (``method="waveform"`` on
  :func:`link_flit_error_rate`).
* :func:`link_flit_error_rate` — the probability that at least one of a
  flit's payload bits survives decoding in error, i.e. the per-traversal
  flit error probability the lossy
  :class:`repro.noc.simulator.NocSimulator` consumes.

All functions take the frozen spec dataclasses of
:mod:`repro.scenarios.specs` (duck-typed — only their documented methods
are used), so a scenario can thread one ``CodingSpec``/``PhySpec``/
``ChannelSpec`` triple through both the link report and the NoC model.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.utils.rng import RngLike
from repro.utils.units import db_to_linear

#: Bits per 4-ASK symbol (the paper's modem; same constant as
#: :meth:`repro.core.link.WirelessBoardLink.evaluate`).
BITS_PER_SYMBOL = 2.0

#: Waterfall steepness of the surrogate residual-BER model, in units of
#: 1/dB.  Chosen so the surrogate drops roughly five decades within the
#: ~2 dB the finite-length measurements of Fig. 10 put between the DE
#: threshold and quasi-error-free operation.
DEFAULT_WATERFALL_SLOPE_PER_DB = 1.5

#: Codewords per Monte-Carlo residual-BER measurement when the caller
#: selects an MC method without pinning the sample size — enough to place
#: an operating point on the right side of the waterfall, cheap enough
#: for a per-scenario-point derivation.
DEFAULT_MC_CODEWORDS = 8

#: The residual-BER derivation methods :func:`link_flit_error_rate`
#: accepts (``None`` means "surrogate unless mc_codewords is given").
LINK_ERROR_METHODS = ("surrogate", "mc", "waveform")


def raw_channel_ber(ebn0_db: float, rate: float) -> float:
    """Pre-decoding BPSK bit error probability at a coded Eb/N0.

    ``Q(sqrt(2 * R * Eb/N0))`` — the matched-filter error rate of the
    unit-energy binary channel the BER harness of
    :mod:`repro.coding.ber` simulates.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    ebn0 = float(db_to_linear(ebn0_db))
    return 0.5 * math.erfc(math.sqrt(rate * ebn0))


def coded_residual_ber(coding, ebn0_db: float, *,
                       mc_codewords: Optional[int] = None,
                       rng: RngLike = 0,
                       waterfall_slope_per_db: float =
                       DEFAULT_WATERFALL_SLOPE_PER_DB,
                       frontend=None,
                       precision=None) -> float:
    """Post-decoding bit error rate of a :class:`CodingSpec` at an Eb/N0.

    Default path (``mc_codewords=None``, ``frontend=None``): a
    deterministic surrogate — the raw channel BER multiplied by ``0.5 *
    erfc(slope * (Eb/N0 - threshold))``, where the threshold is the
    window decoder's density-evolution limit.  Below threshold decoding
    barely helps (the factor approaches 1), at threshold the waterfall
    begins, and a couple of dB above it the residual BER is negligible;
    the surrogate is monotone decreasing in Eb/N0 by construction.

    Monte-Carlo path (``mc_codewords`` and/or ``frontend`` set): measure
    the BER with ``mc_codewords`` codewords (default
    :data:`DEFAULT_MC_CODEWORDS` when only ``frontend`` is given)
    through the spec's batched :class:`~repro.coding.ber.BerSimulator`
    — slower, but the genuine decoder.  ``frontend`` carries the coded
    bits over an arbitrary :class:`~repro.phy.frontend.ChannelFrontend`
    (e.g. the 1-bit oversampled waveform PHY) instead of the idealized
    BPSK/AWGN channel.  ``rng`` seeds the measurement (default 0,
    reproducible).

    Adaptive path (``precision`` set, a
    :class:`~repro.scenarios.specs.PrecisionSpec`): instead of a fixed
    codeword count, simulate until the precision spec's relative-CI
    stopping rule is met
    (:meth:`~repro.coding.ber.BerSimulator.simulate_adaptive`) —
    ``mc_codewords`` is ignored; ``rng`` must be seed material
    acceptable to :func:`repro.utils.rng.ensure_seed_sequence`.
    """
    if precision is not None:
        from repro.utils.rng import ensure_seed_sequence

        simulator = coding.make_ber_simulator(frontend=frontend)
        tally = simulator.simulate_adaptive(
            float(ebn0_db), precision.stopping_rule(),
            ensure_seed_sequence(rng))
        return float(tally.bit_error_rate)
    if mc_codewords is not None or frontend is not None:
        if mc_codewords is None:
            mc_codewords = DEFAULT_MC_CODEWORDS
        simulator = coding.make_ber_simulator(frontend=frontend)
        point = simulator.simulate(float(ebn0_db),
                                   n_codewords=int(mc_codewords), rng=rng)
        return float(point.bit_error_rate)
    raw = raw_channel_ber(ebn0_db, coding.design_rate)
    threshold_db = coding.de_threshold_db()
    waterfall = 0.5 * math.erfc(waterfall_slope_per_db
                                * (float(ebn0_db) - threshold_db))
    return raw * waterfall


def link_operating_ebn0_db(channel, phy, coding,
                           tx_power_dbm: Optional[float] = None) -> float:
    """Coded Eb/N0 a wireless board link delivers at its operating point.

    Builds the :class:`repro.core.link.WirelessBoardLink` the specs
    describe, takes its received SNR and converts to Eb/N0 with the same
    ``SNR = Eb/N0 * R * bits_per_symbol`` relation the link report uses
    (4-ASK carrying 2 bits/symbol).
    """
    from repro.core.link import WirelessBoardLink

    link = WirelessBoardLink(
        distance_m=channel.distance_m,
        budget_parameters=channel.budget_parameters(),
        include_butler_mismatch=channel.include_butler_mismatch,
        pulse=phy.make_pulse(),
        window_size=coding.window_size,
        lifting_factor=coding.lifting_factor,
        dual_polarization=phy.dual_polarization)
    power = channel.tx_power_dbm if tx_power_dbm is None else tx_power_dbm
    snr_db = link.received_snr_db(float(power))
    return snr_db - 10.0 * math.log10(coding.design_rate * BITS_PER_SYMBOL)


def link_flit_error_rate(coding, phy, channel,
                         ebn0_db: Optional[float] = None, *,
                         flit_payload_bits: int = 64,
                         tx_power_dbm: Optional[float] = None,
                         mc_codewords: Optional[int] = None,
                         rng: RngLike = 0,
                         method: Optional[str] = None,
                         precision=None) -> float:
    """Per-traversal flit error probability for the lossy NoC simulator.

    A flit of ``flit_payload_bits`` information bits is lost/corrupted
    when at least one bit survives decoding in error:
    ``1 - (1 - BER)^bits``.  ``ebn0_db`` pins the coded operating point
    directly (the usual scenario knob); when ``None`` it is derived from
    the channel spec's link budget via :func:`link_operating_ebn0_db`
    (``tx_power_dbm`` overrides the spec's transmit power).

    ``method`` selects how the residual BER behind the flit error is
    obtained:

    * ``"surrogate"`` — the deterministic DE-threshold-anchored
      waterfall model (the default when ``mc_codewords`` is not given);
    * ``"mc"`` — Monte-Carlo through the genuine decoder over the
      idealized BPSK/AWGN channel (the default when ``mc_codewords`` is
      given);
    * ``"waveform"`` — Monte-Carlo through the genuine decoder over the
      phy spec's **actual 1-bit oversampled waveform chain**
      (``phy.make_frontend(..., kind="one-bit-waveform")``), so NoC
      lossy-link scenarios ride the real PHY end to end.

    ``precision`` (a :class:`~repro.scenarios.specs.PrecisionSpec`)
    upgrades either Monte-Carlo method to the CI-targeted adaptive
    measurement of :func:`coded_residual_ber` — the sample size is then
    chosen by the stopping rule, so ``mc_codewords`` must not also be
    given (and the surrogate, which draws no samples, rejects it).

    The result is clipped just below 1 so a hopeless link saturates the
    simulator instead of dividing it by zero.
    """
    if flit_payload_bits < 1:
        raise ValueError("flit_payload_bits must be at least 1")
    if method is None:
        method = ("mc" if mc_codewords is not None or precision is not None
                  else "surrogate")
    if method not in LINK_ERROR_METHODS:
        raise ValueError(f"method must be one of {LINK_ERROR_METHODS}, "
                         f"got {method!r}")
    if mc_codewords is not None and int(mc_codewords) < 1:
        raise ValueError("mc_codewords must be at least 1")
    if method == "surrogate" and mc_codewords is not None:
        raise ValueError(
            "mc_codewords has no effect with method='surrogate'; use "
            "method='mc' or 'waveform' for a Monte-Carlo measurement")
    if precision is not None:
        if method == "surrogate":
            raise ValueError(
                "precision has no effect with method='surrogate'; use "
                "method='mc' or 'waveform' for a CI-targeted measurement")
        if mc_codewords is not None:
            raise ValueError(
                "give either mc_codewords (fixed sample size) or "
                "precision (CI-targeted sample size), not both")
    if ebn0_db is None:
        ebn0_db = link_operating_ebn0_db(channel, phy, coding,
                                         tx_power_dbm=tx_power_dbm)
    if method == "surrogate":
        bit_error_rate = coded_residual_ber(coding, ebn0_db, rng=rng)
    else:
        frontend = (phy.make_frontend(rate=coding.design_rate,
                                      kind="one-bit-waveform")
                    if method == "waveform" else None)
        if precision is not None:
            bit_error_rate = coded_residual_ber(
                coding, ebn0_db, rng=rng, frontend=frontend,
                precision=precision)
        else:
            bit_error_rate = coded_residual_ber(
                coding, ebn0_db,
                mc_codewords=(DEFAULT_MC_CODEWORDS if mc_codewords is None
                              else int(mc_codewords)),
                rng=rng, frontend=frontend)
    bit_error_rate = min(max(float(bit_error_rate), 0.0), 1.0 - 1e-12)
    flit_error = -math.expm1(flit_payload_bits * math.log1p(-bit_error_rate))
    return min(max(flit_error, 0.0), 1.0 - 1e-9)
