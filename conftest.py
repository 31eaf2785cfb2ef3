"""Pin BLAS to one thread for the test run, as the benchmark does.

Runs before any test module imports numpy. With OpenBLAS's default of one
thread per core, small GEMMs split across threads and sometimes wait
milliseconds for the second one, which makes timing comparisons such as
acceptance criterion 11 flaky. An explicit setting in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
