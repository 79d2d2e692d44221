"""The repository's one end-to-end + per-layer benchmark (see ``bench/README.md``)."""
