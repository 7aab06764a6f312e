"""The package namespace: ``aci3.<name>`` resolves on use to the attribute of
the module that defines it."""

import importlib

import pytest

import aci3


def test_every_public_name_is_its_module_attribute():
    for module, names in aci3._EXPORTS.items():
        home = importlib.import_module(f"aci3.{module}")
        assert getattr(aci3, module) is home
        for name in names:
            assert getattr(aci3, name) is getattr(home, name), name
    assert sorted(aci3.__all__) == sorted(aci3._HOME)
    assert set(aci3.__all__) <= set(dir(aci3))


def test_star_import():
    namespace = {}
    exec("from aci3 import *", namespace)
    assert set(aci3.__all__) <= set(namespace)
    assert namespace["betti_numbers"] is aci3.koszul.betti_numbers


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        aci3.no_such_name
    assert not hasattr(aci3, "cli_main")


def test_a_replaced_module_attribute_is_what_the_package_returns(monkeypatch):
    from aci3 import koszul

    def stub(ideal):
        return None

    monkeypatch.setattr(koszul, "betti_numbers", stub)
    assert aci3.betti_numbers is stub
    monkeypatch.undo()
    assert aci3.betti_numbers is koszul.betti_numbers
