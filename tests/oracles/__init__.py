"""Retired reference implementations the library is checked against.

* :mod:`oracles.bp` — the row-major float64 BP kernel, for byte identity.
* :mod:`oracles.ber` — the per-codeword BER loop.
* :mod:`oracles.noc` — the deque-of-queues NoC cycle simulator, the
  per-router-pair path walk of the analytic model and the loop forms of
  the hop-count and bisection metrics.
* :mod:`oracles.trellis` — the Python-loop Viterbi search.
* :mod:`oracles.information_rate` — the per-symbol numpy forward
  recursion of the information rate, for byte identity.

Test modules import them as ``oracles`` (pytest puts ``tests/`` on the
import path); ``benchmarks/conftest.py`` adds the same directory.
"""
