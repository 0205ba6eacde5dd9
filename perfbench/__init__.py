"""Layered benchmark of the stream-buffer reproduction.

One command (``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``) runs one of four workloads against the code in
``src/`` of the checkout it lives in:

* ``sweep-cold`` -- the paper's whole pipeline per grid cell (trace
  build, L1, secondary replay, store write) from an empty store;
* ``sweep-warm`` -- the same grid re-read from the store set-up filled;
* ``table4`` -- the Table 4 minimum-L2 searches, brute force and
  analytically screened, over pre-built miss traces;
* ``serve-zipf`` -- Zipf request traffic against a ``repro serve``
  frontend with one self-registered fleet worker.

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` adds a traced run and prints the per-layer metrics (self
time per layer from spans, counts, service and fleet counters).  The last
line of standard output is always one JSON object.  ``manifest.json``
records why each workload exists and which layers it should move.
"""
