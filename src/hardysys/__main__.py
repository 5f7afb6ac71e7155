import os

# No command calls BLAS, but OpenBLAS spins up a worker thread when numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
