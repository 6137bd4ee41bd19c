"""Cross-modality pseudo-label association toolkit.

Import the API from the submodules (``xmod.core``, ``xmod.transfer``, ...);
importing the package itself only applies XMOD_THREADS.

The XMOD_THREADS environment variable caps BLAS worker threads. BLAS reads
its thread count when numpy is first imported, so the cap is applied here,
before any submodule imports numpy.
"""

import os

_threads = os.environ.get("XMOD_THREADS", "").strip()
if _threads.isdigit() and int(_threads) > 0:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"
