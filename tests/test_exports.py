"""The package's public names: every export resolves, so a removed function
cannot leave a dangling entry in ``mkagg.__all__``."""

import mkagg


def test_every_exported_name_resolves():
    missing = [name for name in mkagg.__all__ if not hasattr(mkagg, name)]
    assert not missing
    assert len(set(mkagg.__all__)) == len(mkagg.__all__)


def test_star_import_binds_every_export():
    namespace: dict[str, object] = {}
    exec("from mkagg import *", namespace)
    assert set(mkagg.__all__) <= namespace.keys()
