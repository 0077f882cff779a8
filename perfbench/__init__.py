"""Benchmark harness for fvreact; run it with ``python3 perfbench/run.py``."""

# BLAS and OpenMP thread-count variables the benchmark pins to 1.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
