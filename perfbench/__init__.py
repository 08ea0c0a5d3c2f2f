"""Benchmark of the fairteams pipeline on synthetic corpora; see README.md."""
