"""Fixture: TP302 — a held-only call after the batch window closed.

``fold_batch`` only makes sense while the window is open (the pragma
below declares it the protocol's ``use`` call); folding after
``end_batch`` reads a window that no longer exists.  The typestate pass
must flag exactly the ``fold_batch`` call.
"""

# tp: protocol(name=batch, acquire=begin_batch, release=end_batch, use=fold_batch)


def warmup_fold(sink):
    sink.begin_batch()
    sink.end_batch()
    sink.fold_batch()
