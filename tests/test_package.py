import scfact
from scfact import cli, dynamics, equations, expressions, factorization, polynomials, symmetry

MODULES = (equations, expressions, factorization, dynamics, polynomials, symmetry)


def test_package_all_is_the_module_lists_without_duplicates():
    module_names = [name for module in MODULES for name in module.__all__]
    assert len(set(module_names)) == len(module_names)
    assert sorted(scfact.__all__) == sorted(module_names)


def test_every_public_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(scfact, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from scfact import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(scfact.__all__)


def test_errors_the_cli_reports_are_importable():
    from scfact import FactorizationError, PolynomialError, SymmetryError

    assert FactorizationError is cli.FactorizationError
    assert PolynomialError is cli.PolynomialError
    assert SymmetryError is cli.SymmetryError
