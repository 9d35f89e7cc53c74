"""``import repro`` stays free of ``scipy.stats``.

Three Gaussian functions used to come from ``scipy.stats.norm``, whose
import (with the scipy.optimize/spatial/interpolate modules it loads)
was about half of ``import repro``.  The library now computes what
``norm`` computes inside them: ``norm.sf(x)`` is ``ndtr(-x)``,
``norm.cdf(z)`` is ``ndtr(z)`` and ``norm.pdf`` is
:func:`repro.phy.information_rate._normal_pdf`.  ``scipy.stats`` stays
here as the oracle: each replacement must equal it bit for bit over the
arguments the library passes, and no module under ``src/repro`` may
import it again.
"""

import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from repro.coding.density_evolution import _MEAN_CLIP
from repro.phy.information_rate import _normal_pdf
from repro.phy.modulation import AskConstellation
from repro.utils.units import db_to_linear

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _same_bits(actual, expected):
    """``np.array_equal`` plus a ``float.hex`` spot check of every 97th
    value and the last (the hex form also tells -0.0 from 0.0)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype == np.float64
    assert np.array_equal(actual, expected)
    spots = list(range(0, actual.size, 97)) + [actual.size - 1]
    assert [float(actual.flat[i]).hex() for i in spots] == \
        [float(expected.flat[i]).hex() for i in spots]


class TestReplacementsMatchScipyStats:
    def test_density_evolution_tail(self):
        # protograph_de: norm.sf(sqrt(tracked_means / 2)) over the clipped
        # mean range, with small means dense near zero.
        means = np.concatenate([np.linspace(0.0, _MEAN_CLIP, 40_001),
                                np.geomspace(1e-12, _MEAN_CLIP, 2_001)])
        x = np.sqrt(means / 2.0)
        _same_bits(ndtr(-x), norm.sf(x))

    def test_channel_model_cdf(self):
        # OversampledOneBitChannel: norm.cdf(means / noise_std) across
        # +-40, through 0 and the saturated tails, and at +-inf.
        tails = np.geomspace(1e-300, 40.0, 2_001)
        z = np.concatenate([np.linspace(-40.0, 40.0, 80_001), tails, -tails,
                            [0.0, -0.0, np.inf, -np.inf]])
        _same_bits(ndtr(z), norm.cdf(z))

    @pytest.mark.parametrize("snr_db", np.arange(-10.0, 30.5, 0.5))
    def test_information_rate_pdf(self, snr_db):
        # ask_awgn_information_rate's loc/scale pairs at its default
        # 4-ASK constellation and 129 quadrature nodes.
        levels = AskConstellation(4).levels
        sigma = np.sqrt(1.0 / float(db_to_linear(snr_db)))
        nodes, _ = np.polynomial.hermite_e.hermegauss(129)
        for level in levels:
            y = level + sigma * nodes
            for loc in levels:
                _same_bits(_normal_pdf(y, loc, sigma),
                           norm.pdf(y, loc=loc, scale=sigma))


def test_import_repro_loads_no_scipy_stats():
    """A fresh interpreter imports repro and runs all three replacements
    without loading scipy.stats or what it drags in, nor ``sqlite3``,
    which only a :class:`~repro.core.store.DiskStore` in use imports."""
    code = (
        "import sys\n"
        "import repro\n"
        "from repro.coding import PAPER_BLOCK_PROTOGRAPH, "
        "gaussian_de_threshold\n"
        "from repro.phy import AskConstellation, "
        "ask_awgn_information_rate\n"
        "from repro.phy.channel_model import OversampledOneBitChannel\n"
        "from repro.phy.pulse import rectangular_pulse\n"
        "gaussian_de_threshold(PAPER_BLOCK_PROTOGRAPH, 0.5, "
        "tolerance_db=0.5)\n"
        "OversampledOneBitChannel(pulse=rectangular_pulse(3), "
        "constellation=AskConstellation(4), snr_db=10.0)\n"
        "ask_awgn_information_rate(10.0)\n"
        "print(' '.join(name for name in ('scipy.stats', 'scipy.optimize', "
        "'scipy.spatial', 'sqlite3') if name in sys.modules))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True,
                            timeout=120).stdout.split()
    assert loaded == []


def _imports_scipy_stats(node):
    if isinstance(node, ast.Import):
        return any(alias.name == "scipy.stats"
                   or alias.name.startswith("scipy.stats.")
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        module = node.module or ""
        return (module == "scipy.stats" or module.startswith("scipy.stats.")
                or (module == "scipy" and any(alias.name == "stats"
                                              for alias in node.names)))
    return False


def test_no_module_under_src_imports_scipy_stats():
    # ast.walk reaches imports inside functions and classes too.
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.glob("repro/**/*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _imports_scipy_stats(node)]
    assert offenders == []


def test_the_scan_sees_every_import_form():
    for source in ("import scipy.stats", "import scipy.stats as st",
                   "from scipy.stats import norm", "from scipy import stats",
                   "from scipy.stats._continuous_distns import norm_gen",
                   "def f():\n    from scipy.stats import norm\n"):
        assert any(_imports_scipy_stats(node)
                   for node in ast.walk(ast.parse(source))), source
    for source in ("import scipy", "from scipy.special import ndtr",
                   "from scipy import sparse", "import scipy.statsmodels"):
        assert not any(_imports_scipy_stats(node)
                       for node in ast.walk(ast.parse(source))), source
