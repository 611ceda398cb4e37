"""Fixture: TP301 — a batch window without a ``finally``.

``replay`` opens a batch window on its sink (a receiver protocol this
module declares with the ``tp: protocol`` pragma below) and closes it
at the end of the happy path, but ``serve`` may raise mid-loop; on that
exception edge the function unwinds with the window still open.  The
typestate pass must flag exactly the acquire site — the bug class
``try/finally`` exists to prevent.
"""

# tp: protocol(name=batch, acquire=begin_batch, release=end_batch, use=fold_batch)


class Replayer:
    def replay(self, sink, requests):
        sink.begin_batch()
        for request in requests:
            self.serve(request)
        sink.end_batch()

    def serve(self, request):
        if request is None:
            raise ValueError("empty request slot")
