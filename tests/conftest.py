"""Shared fixtures. Ray is initialised ONCE per pytest session, lazily —
only tests that request the ``ray_session`` fixture pay for it."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir() -> str:
    return "/root/testdata/sf0.001"


@pytest.fixture
def adaptive_rounds(monkeypatch):
    """The escalation rounds of the adaptive runs in a test, as
    (rows, untiled) pairs: a tiled round (a ``stitch.exchange`` call) with
    the linework rows its map's prefilter keeps (``stitch._prefilter`` on
    the map partial's assigner and active tiles), and the untiled last
    step (a ``stitch.polygonize_slices`` call) with every input row."""
    from geo_polygonize_ray.functions.exchange import fetch
    from geo_polygonize_ray.stages import stitch

    rounds: list = []
    exchange, untiled = stitch.exchange, stitch.polygonize_slices

    def tiled_round(inputs, n_out, reduce_fn):
        [(slices, map_fn)] = inputs
        _, assigner, keep, _ = map_fn.args
        rounds.append((stitch._prefilter(fetch(slices), assigner, keep).num_rows, False))
        return exchange(inputs, n_out, reduce_fn)

    def untiled_round(slices, *args, **kwargs):
        rounds.append((sum(n for _, _, n in slices), True))
        return untiled(slices, *args, **kwargs)

    monkeypatch.setattr(stitch, "exchange", tiled_round)
    monkeypatch.setattr(stitch, "polygonize_slices", untiled_round)
    return rounds
