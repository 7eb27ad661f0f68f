"""The package's lazily resolved exports."""

import importlib
import types

import pytest

import factorwords


def test_every_export_is_the_object_its_module_defines():
    for name in factorwords.__all__:
        module = importlib.import_module(f"factorwords.{factorwords._MODULE_OF[name]}")
        assert getattr(factorwords, name) is getattr(module, name), name


def test_export_table_names_all_exports_once():
    assert len(set(factorwords.__all__)) == len(factorwords.__all__)
    assert set(factorwords._MODULE_OF) == set(factorwords.__all__)
    assert sum(map(len, factorwords._EXPORTS.values())) == len(factorwords.__all__)


def test_dir_lists_every_export():
    assert set(factorwords.__all__) <= set(dir(factorwords))
    assert "__version__" in dir(factorwords)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        factorwords.no_such_name
    with pytest.raises(ImportError):
        from factorwords import no_such_name  # noqa: F401


def test_star_import_binds_every_export():
    namespace = {}
    exec("from factorwords import *", namespace)
    assert {name: namespace[name] for name in factorwords.__all__} == {
        name: getattr(factorwords, name) for name in factorwords.__all__}


def test_submodules_still_import_by_name():
    from factorwords import bounds, words
    assert isinstance(bounds, types.ModuleType) and bounds.__name__ == "factorwords.bounds"
    assert words.Word is factorwords.Word
    from factorwords import t_table
    from factorwords.enumeration import brute_force_enumerate
    assert t_table is factorwords.counting.t_table
    assert brute_force_enumerate is factorwords.brute_force_enumerate
