"""The per-codeword BER loop, kept as a test oracle.

The pre-batching implementation of :meth:`repro.coding.ber.BerSimulator.simulate`
over BPSK/AWGN: one ``(n,)`` noise draw and one scalar decode per
codeword.  A ``(B, n)`` normal draw consumes the generator stream exactly
like ``B`` consecutive ``(n,)`` draws, so the batched simulator must
return the same :class:`~repro.coding.ber.BerPoint` at a fixed seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.coding.ber import BerPoint, BerSimulator
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive


def simulate_reference(simulator: BerSimulator, ebn0_db: float,
                       n_codewords: int = 50, rng: RngLike = None,
                       max_bit_errors: Optional[int] = None) -> BerPoint:
    """Per-codeword BPSK/AWGN loop of ``simulator`` at one Eb/N0.

    Always BPSK/AWGN, whatever frontend ``simulator`` is configured with.
    """
    check_positive("n_codewords", n_codewords)
    generator = ensure_rng(rng)
    sigma = simulator.noise_std(ebn0_db)
    total_bits = 0
    total_errors = 0
    block_errors = 0
    codewords_done = 0
    truncated = False
    for _ in range(int(n_codewords)):
        received = 1.0 + generator.normal(0.0, sigma,
                                          size=simulator.codeword_length)
        llrs = simulator.channel_llrs(received, ebn0_db)
        decisions = np.asarray(simulator.decode(llrs)).reshape(-1)
        if decisions.size != simulator.codeword_length:
            raise ValueError("decoder returned the wrong number of bits")
        errors = int(np.count_nonzero(decisions))
        total_errors += errors
        total_bits += simulator.codeword_length
        block_errors += int(errors > 0)
        codewords_done += 1
        if max_bit_errors is not None and total_errors >= max_bit_errors:
            truncated = True
            break
    return BerPoint(ebn0_db=float(ebn0_db),
                    bit_error_rate=total_errors / total_bits,
                    block_error_rate=block_errors / codewords_done,
                    n_bits=total_bits,
                    n_bit_errors=total_errors,
                    n_codewords=codewords_done,
                    truncated=truncated)
