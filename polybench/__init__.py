"""Layered benchmark of the polygonize engine (see run.py)."""
