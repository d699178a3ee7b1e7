"""Runnable docs example: backend parity against the numpy reference."""

import numpy as np

from repro.snn.backends import SweepSpec, select_backend
from repro.snn.backends.numpy_ref import lif_forward_sweep

rng = np.random.default_rng(0)
ff = rng.standard_normal((20, 4, 32)).astype(np.float32)
spec = SweepSpec(beta=0.9, vthr=0.6, hard=True)

reference_membrane, reference_spikes = lif_forward_sweep(ff, None, spec)
backend = select_backend("auto")
membrane, spikes = backend.lif_forward(ff, None, spec)

# Every backend must match the reference to the last bit.
np.testing.assert_array_equal(membrane, reference_membrane, strict=True)
np.testing.assert_array_equal(spikes, reference_spikes, strict=True)
print(f"backend {backend.name!r} matches the reference bitwise")
