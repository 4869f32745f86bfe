"""The repo's edge-to-kernel benchmark; entry point ``perfbench/run.py``."""
