"""Autotuning (paper Section 3.8): the model-restricted sweep and the
stochastic wide-space baseline used for the OpenTuner comparison.

Both searches share one compile → verify → load → time loop: pass
``n_workers > 1`` to compile configurations on that many threads of the
calling process while timing stays on the calling thread, one
configuration at a time.  The compile cache builds each distinct C
source once per process, however many configurations generate it."""

from repro.autotune.random_search import (
    RandomConfig, SearchReport, SearchResult, random_search, sample_config,
)
from repro.autotune.tuner import (
    SkippedConfig, TuneConfig, TuneResult, TuningReport, autotune,
    default_space,
)

__all__ = ["RandomConfig", "SearchReport", "SearchResult", "SkippedConfig",
           "TuneConfig", "TuneResult", "TuningReport", "autotune",
           "default_space", "random_search", "sample_config"]
