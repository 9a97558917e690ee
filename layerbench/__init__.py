"""Fixed-work benchmark of the reuse-cache repository (see README.md)."""
