"""End-to-end benchmark of the repro package; see perfbench/README.md."""
