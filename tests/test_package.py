import types

import semicrossed as sc


def test_all_lists_the_public_names():
    assert sc.__all__ == sorted(sc.__all__)
    assert len(set(sc.__all__)) == len(sc.__all__)
    for name in sc.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(sc, name), types.ModuleType)
    assert {"evaluate", "evaluate_base", "shift_power", "project"} <= set(sc.__all__)
    bound = vars(sc).items()
    public = {n for n, v in bound if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(sc.__all__)
    assert "_types" not in vars(sc) and "types" not in vars(sc)
