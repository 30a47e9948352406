"""The package's public names: each one listed in __all__ must import."""

import crowdinfer


def test_every_name_in_all_resolves():
    missing = [name for name in crowdinfer.__all__ if not hasattr(crowdinfer, name)]
    assert not missing
    assert len(set(crowdinfer.__all__)) == len(crowdinfer.__all__)


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from crowdinfer import *", namespace)
    assert set(crowdinfer.__all__) <= set(namespace)
