"""The package surface: what `mmdesign` exports."""

import mmdesign

REMOVED = ("HrfVector", "peak_time", "DesignMatrix", "e_matrix", "l_matrix",
           "two_run_phi_a", "sample_hrf", "hrf_partial", "min_phi_a")


def test_every_exported_name_resolves():
    for name in mmdesign.__all__:
        assert getattr(mmdesign, name) is not None, name
    assert len(set(mmdesign.__all__)) == len(mmdesign.__all__)


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from mmdesign import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mmdesign.__all__)


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in mmdesign.__all__
        assert not hasattr(mmdesign, name), name
