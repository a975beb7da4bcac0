"""Test-session setup.

The suite's matrices are small (at most a few hundred rows), where
OpenBLAS's threads cost more than they save; one thread is set before
numpy is first imported, unless the environment already chooses.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
