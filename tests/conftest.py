"""Pin OpenBLAS to its Haswell (AVX2) kernel for the whole test session.

The golden sha256 digests of ``compare`` hold on one BLAS kernel only: the kernels
sum in different orders, so a matmul or an ``eigvalsh`` can differ in its last bits
from one CPU to the next.  The variable is set here, before any test module loads
numpy, and overrides the caller's value; the CLI runs the tests launch inherit it.
Haswell runs on every x86-64 CPU with AVX2.  ``tests/test_cli.py`` checks that
numpy's OpenBLAS picked it up.
"""

import os

os.environ["OPENBLAS_CORETYPE"] = "Haswell"
