"""corpus-forge: verified speech-corpus construction from pseudo-labels.

Stages: text normalization, silence-based segmentation of timed token
streams, transcript retrieval (tf-idf sharding + local alignment + WER
filter), speaker/chapter partitioning with limited-supervision subsets,
LM-corpus decontamination, and n-gram language model training/evaluation.
"""

import os

# No module calls BLAS, and ``pipeline.ordered_map`` forks: keep numpy's
# OpenBLAS from starting a thread pool, so every fork is from one thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
