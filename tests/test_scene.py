"""Scene construction: unit conversions, steering, channels, serialization."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from airsdm.scene import (
    SceneConfig,
    benchmark_scene,
    build_channels,
    db_to_linear,
    dbm_to_watts,
    path_gain,
    steering_vector,
)


# -- unit conversions --------------------------------------------------------

def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert_allclose(db_to_linear(-30.0), 1e-3, rtol=1e-14)
    assert_allclose(db_to_linear(10.0), 10.0, rtol=1e-14)


def test_dbm_to_watts():
    assert dbm_to_watts(30.0) == 1.0
    assert_allclose(dbm_to_watts(20.0), 0.1, rtol=1e-14)
    assert_allclose(dbm_to_watts(-70.0), 1e-10, rtol=1e-14)


def test_path_gain_frozen_values():
    assert_allclose(path_gain(1.0), 1e-3, rtol=1e-14)
    assert_allclose(path_gain(100.0), 1e-7, rtol=1e-12)
    # Bob's direct-link distance in the benchmark geometry: sqrt(100^2+15^2)
    assert_allclose(path_gain(math.sqrt(10225.0)), 9.779951100244499e-08, rtol=1e-12)
    assert_allclose(path_gain(2.0, pl_ref_db=-30.0, pl_exponent=2.0), 2.5e-4, rtol=1e-14)
    assert_allclose(path_gain(10.0, pl_ref_db=-20.0, pl_exponent=3.0), 1e-5, rtol=1e-12)


def test_path_gain_inside_reference_raises():
    with pytest.raises(ValueError):
        path_gain(0.5)


# -- steering ----------------------------------------------------------------

def test_steering_vector_examples():
    assert_allclose(steering_vector(1, 0.7), [1.0 + 0j])
    assert_allclose(steering_vector(3, 0.0), np.ones(3))
    # endfire (sin = 1): phases step by pi, signs alternate
    assert_allclose(steering_vector(4, math.pi / 2), [1, -1, 1, -1], atol=1e-12)


def test_steering_vector_unit_modulus():
    v = steering_vector(16, 0.3)
    assert v.shape == (16,)
    assert_allclose(np.abs(v), np.ones(16), rtol=1e-14)
    # uniform phase progression
    steps = np.angle(v[1:] * v[:-1].conj())
    assert_allclose(steps, np.pi * math.sin(0.3), rtol=1e-12)


def test_steering_vector_rejects_empty_array():
    with pytest.raises(ValueError):
        steering_vector(0, 0.1)


# -- config validation and serialization -------------------------------------

def test_scene_defaults_are_the_benchmark():
    cfg = SceneConfig()
    assert cfg.m_bs == 8
    assert (cfg.n_irs, cfg.n1, cfg.n2) == (32, 16, 16)
    assert cfg.bs_pos == (0.0, 0.0, 0.0)
    assert cfg.irs1_pos == (80.0, 20.0, 30.0)
    assert cfg.irs2_pos == (80.0, 30.0, 20.0)
    assert cfg.bob_pos == (100.0, 15.0, 0.0)
    assert cfg.eve_pos == (120.0, 5.0, 0.0)
    assert cfg.pl_ref_db == -30.0
    assert cfg.pl_exponent == 2.0
    assert cfg.rician_k_db is None


@pytest.mark.parametrize("kwargs", [
    {"m_bs": 0},
    {"n_irs": 8, "n1": 4, "n2": 3},     # blocks must partition N
    {"pl_ref_db": 0.0},
    {"pl_exponent": -1.0},
    {"bob_pos": (1.0, 2.0)},            # not 3-D
    {"n_irs": 8, "n1": 0, "n2": 8},     # an empty block
    {"n_irs": 0, "n1": 0, "n2": 0},     # an empty surface
])
def test_scene_config_validation(kwargs):
    with pytest.raises(ValueError):
        SceneConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"bs_pos": (math.nan, 0.0, 0.0)},
    {"irs1_pos": (80.0, math.inf, 30.0)},
    {"irs2_pos": (80.0, 30.0, -math.inf)},
    {"bob_pos": (100.0, math.nan, 0.0)},
    {"eve_pos": (math.nan, math.nan, math.nan)},
    {"pl_ref_db": math.nan},
    {"pl_ref_db": -math.inf},
    {"pl_exponent": math.nan},
    {"pl_exponent": math.inf},
    {"rician_k_db": math.nan},
    {"rician_k_db": math.inf},
    {"rician_k_db": -math.inf},
])
def test_scene_config_rejects_non_finite_values(kwargs):
    with pytest.raises(ValueError, match="finite"):
        SceneConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"n_irs": "x"},
    {"m_bs": True},
    {"n1": 16.5},
    {"seed": None},
    {"pl_ref_db": "-30"},
    {"pl_exponent": [2.0]},
    {"rician_k_db": "5"},
    {"bs_pos": 5},
    {"bob_pos": "1,2"},
    {"eve_pos": ("a", 0.0, 0.0)},
    {"irs1_pos": (80.0, 20.0)},
])
def test_scene_config_rejects_wrongly_typed_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SceneConfig(**kwargs)


def test_scene_config_takes_integral_counts_as_ints():
    cfg = SceneConfig(m_bs=4.0, n_irs=np.int64(8), n1=4, n2=4)
    assert (cfg.m_bs, cfg.n_irs) == (4, 8)
    assert type(cfg.m_bs) is int and type(cfg.n_irs) is int


def test_scene_dict_round_trip():
    cfg = SceneConfig(m_bs=4, n_irs=8, n1=3, n2=5, pl_ref_db=-42.0,
                      rician_k_db=5.0, seed=7)
    again = SceneConfig.from_dict(cfg.to_dict())
    assert again == cfg
    # JSON turns the position tuples into lists; they come back as tuples
    again = SceneConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_scene_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown scene keys"):
        SceneConfig.from_dict({"m_bs": 4, "n_irs": 8, "n1": 4, "n2": 4,
                               "bandwidth": 1e6})


def test_benchmark_scene_block_fill_rules():
    assert (benchmark_scene(n_irs=10).n1, benchmark_scene(n_irs=10).n2) == (5, 5)
    cfg = benchmark_scene(n_irs=10, n1=3)
    assert (cfg.n1, cfg.n2) == (3, 7)
    cfg = benchmark_scene(n_irs=10, n2=4)
    assert (cfg.n1, cfg.n2) == (6, 4)
    cfg = benchmark_scene(m_bs=4, n_irs=8, pl_ref_db=-55.0)
    assert (cfg.m_bs, cfg.pl_ref_db) == (4, -55.0)


# -- channel synthesis --------------------------------------------------------

def test_build_channels_shapes_and_amplitudes():
    cfg = benchmark_scene(m_bs=4, n_irs=8)
    ch, bch = build_channels(cfg)
    assert ch.h_b.shape == (4,) and ch.h_e.shape == (4,)
    assert ch.g_b.shape == (8,) and ch.g_e.shape == (8,)
    assert ch.H_si.shape == (8, 4)
    assert (bch.n1, bch.n2) == (4, 4)
    assert bch.H_s1.shape == (4, 4) and bch.H_s2.shape == (4, 4)

    # LoS entries all share the link's amplitude sqrt(path_gain)
    amp = math.sqrt(path_gain(math.sqrt(10225.0)))
    assert_allclose(np.abs(ch.h_b), amp * np.ones(4), rtol=1e-12)


def test_build_channels_los_matrix_is_rank_one():
    ch, _ = build_channels(benchmark_scene())
    s = np.linalg.svd(ch.H_si, compute_uv=False)
    assert s[1] <= 1e-12 * s[0]


def test_build_channels_frozen_regression():
    ch, bch = build_channels(benchmark_scene())
    assert_allclose(ch.h_b[1], -0.0003125402514142996 + 1.0867485833044575e-05j,
                    rtol=1e-12)
    assert_allclose(np.linalg.norm(ch.g_e), 0.0034268234950249553, rtol=1e-12)
    assert_allclose(ch.H_si[2, 3], -6.577300350778168e-05 - 0.00035432194665261036j,
                    rtol=1e-12)
    assert_allclose(bch.g_b2[0], 0.0009877295966495897 + 0j, rtol=1e-12)


def test_build_channels_rejects_coincident_nodes():
    cfg = SceneConfig(bob_pos=SceneConfig().bs_pos)
    with pytest.raises(ValueError, match="coincident node positions"):
        build_channels(cfg)


def test_colocated_blocks_partition_the_monolithic_array():
    cfg = benchmark_scene(n_irs=12, n1=5, n2=7)
    cfg = SceneConfig.from_dict({**cfg.to_dict(), "irs2_pos": cfg.irs1_pos})
    ch, bch = build_channels(cfg)
    assert_allclose(np.vstack([bch.H_s1, bch.H_s2]), ch.H_si, rtol=1e-15)
    assert_allclose(np.concatenate([bch.g_b1, bch.g_b2]), ch.g_b, rtol=1e-15)
    assert_allclose(np.concatenate([bch.g_e1, bch.g_e2]), ch.g_e, rtol=1e-15)
    assert_allclose(bch.h_b, ch.h_b, rtol=1e-15)
    assert all(np.array_equal(getattr(bch.stacked(), f.name), getattr(ch, f.name))
               for f in fields(ch))


def test_distinct_blocks_are_independent_arrays():
    _, bch = build_channels(benchmark_scene(n_irs=8))
    # block 2 sits elsewhere: its Bob link has its own amplitude
    assert not np.allclose(np.abs(bch.g_b1[0]), np.abs(bch.g_b2[0]))


def test_rician_channels_are_seed_deterministic():
    cfg = benchmark_scene(n_irs=8, rician_k_db=5.0, seed=3)
    ch1, b1 = build_channels(cfg)
    ch2, b2 = build_channels(cfg)
    assert np.array_equal(ch1.H_si, ch2.H_si)
    assert np.array_equal(b1.g_e2, b2.g_e2)

    cfg_other = benchmark_scene(n_irs=8, rician_k_db=5.0, seed=4)
    ch3, _ = build_channels(cfg_other)
    assert not np.allclose(ch1.H_si, ch3.H_si)


def test_rician_weights_preserve_average_power():
    # with K -> +inf dB the scattered part vanishes: channels -> pure LoS
    cfg_los = benchmark_scene(n_irs=8)
    cfg_k = benchmark_scene(n_irs=8, rician_k_db=200.0, seed=1)
    ch_los, _ = build_channels(cfg_los)
    ch_k, _ = build_channels(cfg_k)
    assert_allclose(ch_k.H_si, ch_los.H_si, rtol=1e-8)
