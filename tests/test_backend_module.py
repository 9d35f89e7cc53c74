"""The kernel dtype knob and the specs that carry it.

The BP and trellis kernels have one implementation each; ``dtype`` is
their only precision knob, and the layer specs no longer name an array
backend.
"""

import numpy as np
import pytest

from repro.utils.validation import SUPPORTED_DTYPES, resolve_dtype


class TestResolveDtype:
    def test_default_is_float64(self):
        assert resolve_dtype(None) == np.float64

    @pytest.mark.parametrize("spelling", ["float32", np.float32,
                                          np.dtype("float32")])
    def test_float32_spellings(self, spelling):
        assert resolve_dtype(spelling) == np.float32

    @pytest.mark.parametrize("bad", ["float16", "int32", "complex128"])
    def test_unsupported_dtype_raises_naming_choices(self, bad):
        with pytest.raises(ValueError) as excinfo:
            resolve_dtype(bad)
        for name in SUPPORTED_DTYPES:
            assert name in str(excinfo.value)

    def test_garbage_dtype_raises_value_error(self):
        with pytest.raises(ValueError):
            resolve_dtype(object())


class TestSpecValidation:
    def test_coding_spec_rejects_unknown_backend(self):
        from repro.scenarios.specs import CodingSpec

        with pytest.raises(ValueError, match="backend"):
            CodingSpec.from_dict({"backend": "tensorflow"})

    def test_phy_spec_rejects_unknown_dtype(self):
        from repro.scenarios.specs import PhySpec

        with pytest.raises(ValueError, match="dtype"):
            PhySpec(dtype="float16")

    def test_noc_spec_rejects_unknown_backend(self):
        from repro.scenarios.specs import NocSpec

        with pytest.raises(ValueError, match="backend"):
            NocSpec.from_dict({"backend": "abacus"})

    def test_dtype_enters_cache_identity(self):
        from repro.scenarios.specs import CodingSpec, PhySpec

        assert CodingSpec().cache_dict() \
            != CodingSpec(dtype="float32").cache_dict()
        assert PhySpec().cache_dict() \
            != PhySpec(dtype="float32").cache_dict()

    def test_specs_carry_no_backend(self):
        from repro.scenarios.specs import CodingSpec, NocSpec, PhySpec

        for spec in (CodingSpec(), PhySpec(), NocSpec()):
            assert "backend" not in spec.cache_dict()
