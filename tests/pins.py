"""Exact float pins that hold for one OpenBLAS kernel each.

The kernels' GEMMs round differently, so a float the seeded fixtures give
differs between them in its last digits. Each table holds one exact value
per kernel, recorded by running its test under `OPENBLAS_CORETYPE=<kernel>`
(the same at 1 and at 2 threads); `pinned` picks the one for the kernel of
this process (`_blas.core_names()`, which the pytest header prints).
"""

import pytest

from fmapkit import _blas

# completeness2 of the incomplete-feature fixture (criterion 04)
COMPLETENESS2 = {
    "SkylakeX": 0.8590161478528255,
    "Haswell": 0.8590161478528253,
    "Sandybridge": 0.8590161478528252,
}

# refine_proper from C_gt + 0.1 * N(0,1) noise (seed 17), default tau, 10
# iterations (criterion 07 and test_refine.py), with 1/tau folded into Phi1
# (fmap._soft_apply)
NOISY_TRACE = {
    "SkylakeX": [
        7.954667664447677,
        0.07807151933595177,
        0.016367384353833316,
        0.004639617788321331,
        0.0016407904687774154,
        0.0006473822914610087,
        0.0002721609478571986,
        0.0001211229308643511,
        5.688478062433826e-05,
        2.7974495771931738e-05,
    ],
    "Haswell": [
        7.954667664447745,
        0.07807151933594202,
        0.01636738435383088,
        0.004639617788321042,
        0.0016407904687775151,
        0.0006473822914611114,
        0.0002721609478572572,
        0.00012112293086438705,
        5.688478062435523e-05,
        2.79744957719444e-05,
    ],
    "Sandybridge": [
        7.954667664447631,
        0.07807151933595624,
        0.016367384353834943,
        0.004639617788322009,
        0.0016407904687777601,
        0.0006473822914611768,
        0.0002721609478572775,
        0.00012112293086439164,
        5.6884780624357296e-05,
        2.797449577194509e-05,
    ],
}

# first residual of feature-mode refine_proper from C = 0 on the
# complete-feature fixture, default tau
FEATURE_RESIDUAL = {
    "SkylakeX": 29.36850892094038,
    "Haswell": 29.368508920940272,
    "Sandybridge": 29.368508920940364,
}


def pinned(values: dict):
    """The value `values` holds for this process's OpenBLAS kernel.

    Fails, naming the kernel, when none is recorded for it (or when the
    controlled libraries run different kernels, or none is controlled).
    """
    names = set(_blas.core_names())
    kernel = names.pop() if len(names) == 1 else ", ".join(sorted(names)) or "none controlled"
    if kernel not in values:
        pytest.fail(f"no pin recorded for OpenBLAS kernel {kernel!r}; "
                    f"recorded: {', '.join(values)}")
    return values[kernel]
