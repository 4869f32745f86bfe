"""Reference implementations: the pure-dict oracle the parity suites hold
the compiled kernel to (same answers, orders, counters, tables, families),
and the networkx greedy decomposition the bitset one must reproduce.

Only tests and benchmarks import this package.  It lives outside
``src/``, so it is never installed, and no module under ``src/`` imports
it.  It imports from :mod:`repro` only the data model, never a solver,
so the oracle stays independent of the kernel it checks;
``tests/test_reference_boundary.py`` pins both directions.
"""
