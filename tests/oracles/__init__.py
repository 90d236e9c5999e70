"""Per-access reference replay of every platform, for differential tests.

A platform has one service hook, ``service_batch``, and one replay,
``Platform.run``: it filters the trace through L1/L2 once and hands each
chunk's misses to ``service_batch`` as one columnar batch.  This package is
the second, independent implementation that path is compared against:

* :func:`run_scalar` walks a trace one access at a time — compute phase,
  the scalar ``CacheHierarchy.access``, then :func:`service_access` for
  each miss — and must return a ``RunResult`` bit-identical to
  ``platform.run(trace)`` on a twin platform;
* :func:`service_access` serves one off-chip access on any registered
  platform, through one per-access function per platform class.  Those
  call the same device helpers the batched paths call (mmap's
  ``_install_fault`` / ``_fault_io``, the ULL bypass's ``_flash_access``,
  FlatFlash's ``_mmio_replay`` as a batch of one), but classify each
  access on its own through the scalar ``PageCache.access`` /
  ``install``.  nvdimm-C's keeps a copy of its own of the miss: the chunk
  installed page by page, the chunk read, then the dirty victims'
  writebacks — so its differential compares two implementations of the
  migration charge, not one;
* :func:`hams_access` serves one HAMS request with the scalar tag-array
  sequence (:func:`hams_classify`: ``MoSTagArray.lookup``, then
  ``mark_dirty`` or ``install``, with the NVDIMM charged call by call),
  then ``HAMSController.replay_miss`` — where the product classifies with
  ``HAMSController.classify_batch``.

The package imports nothing but numpy and ``repro``, so
``benchmarks/bench_replay_throughput.py`` can time :func:`run_scalar`
against ``Platform.run`` where only numpy is installed.
"""

from .hams import hams_access, hams_classify
from .replay import run_scalar, service_access

__all__ = ["hams_access", "hams_classify", "run_scalar", "service_access"]
