"""Exact numbers: every number the engine stores is an ``int`` or a
``Fraction``, never a ``float`` or a ``bool``, and the number rules in
``linalg`` hold."""

import sys
from fractions import Fraction

import pytest

import zzqh.modules
from zzqh.algebra import AlgebraInstance
from zzqh.cli import run_cli
from zzqh.linalg import Echelon, Matrix, _coerce, exact_div
from zzqh.modules import Resolution, RightModule


def _exact(x):
    return type(x) is int or type(x) is Fraction


def test_coerce_and_exact_div_keep_integers_as_int():
    assert _coerce(3) == 3 and type(_coerce(3)) is int
    assert type(_coerce(True)) is int
    assert type(_coerce(Fraction(4, 2))) is int
    with pytest.raises(TypeError):
        _coerce(0.5)
    assert _coerce("2/3") == Fraction(2, 3)
    assert exact_div(6, -3) == -2 and type(exact_div(6, -3)) is int
    assert exact_div(1, 3) == Fraction(1, 3)
    assert type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int
    rows = Echelon([[2, 1], [0, 3]]).rows
    assert rows == {0: [1, Fraction(1, 2)], 1: [0, 1]}
    assert all(_exact(c) for row in rows.values() for c in row)
    assert all(_exact(c) for row in Matrix([[2, 4], [1, 3]]).rref()[1].data
               for c in row)


def test_solve_coerces_its_right_hand_side_alone():
    """``Matrix.solve`` takes its own rows as exact and coerces only the
    right-hand side: a float there raises, a Fraction solution stays
    exact, and an integral one comes back as ints."""
    m = Matrix([[2, 0], [0, 3]])
    with pytest.raises(TypeError):
        m.solve([1, 0.5])
    x = m.solve([1, Fraction(1, 2)])
    assert x == [Fraction(1, 2), Fraction(1, 6)] and all(map(_exact, x))
    x = m.solve([4, Fraction(6, 2)])
    assert x == [2, 1] and all(type(c) is int for c in x)


def test_no_float_reaches_rows_actions_maps_or_forms(monkeypatch, capsys):
    """``check all`` on the grid and ``check dual`` and ``check koszul``
    at a grid point, on instances built here, store only ints and
    Fractions: in the echelon rows, the action rows of every module,
    the generator images of every resolution, the matrices that
    ``left_mult_map`` returns, the bidegree blocks of
    the Hom-complex differentials, and the normal forms of every basis."""
    bad, made = [], {"modules": [], "resolutions": [], "maps": [],
                     "algebras": [], "diffs": []}

    def watch(cls, name, bucket):
        orig = getattr(cls, name)

        def wrapped(self, *args, **kwargs):
            out = orig(self, *args, **kwargs)
            made[bucket].append(self)
            return out
        monkeypatch.setattr(cls, name, wrapped)

    watch(RightModule, "__init__", "modules")
    watch(Resolution, "__init__", "resolutions")
    watch(AlgebraInstance, "__init__", "algebras")
    insert = Echelon.insert

    def checked_insert(self, vec):
        piv = insert(self, vec)
        if piv is not None:
            bad.extend(c for c in self.rows[piv] if not _exact(c))
        return piv
    monkeypatch.setattr(Echelon, "insert", checked_insert)
    ext_bigraded_reps = zzqh.modules.ext_bigraded_reps

    def recorded_ext_bigraded_reps(res, n):
        bases, blocks, levels = ext_bigraded_reps(res, n)
        made["diffs"].extend(diff for step in blocks
                             for _, diff, _ in step.values())
        return bases, blocks, levels

    left_mult_map = zzqh.modules.left_mult_map

    def recorded_left_mult_map(*args, **kwargs):
        out = left_mult_map(*args, **kwargs)
        made["maps"].append(out)
        return out
    # patch each name where a layer imported it, not only its home module
    for fn, wrapper in ((left_mult_map, recorded_left_mult_map),
                        (ext_bigraded_reps, recorded_ext_bigraded_reps)):
        for key, mod in list(sys.modules.items()):
            if key.startswith("zzqh") and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapper)

    for argv in (["check", "all"], ["check", "dual", "--n", "2", "--s", "3"],
                 ["check", "koszul", "--n", "2", "--s", "3"]):
        assert run_cli(argv) == 0, argv
    capsys.readouterr()

    assert all(made.values())
    for m in made["modules"]:
        bad.extend(c for rows in m.action.values() for row in rows.values()
                   for c in row.values() if not _exact(c))
    for res in made["resolutions"]:
        bad.extend(c for rows in res.gens for row in rows for c in row.values()
                   if not _exact(c))
    for mat in made["maps"] + made["diffs"]:
        bad.extend(c for row in mat.data for c in row if not _exact(c))
    for inst in made["algebras"]:
        bad.extend(c for form in inst._forms.values()
                   for c in form.values() if not _exact(c))
    assert not bad, bad[:5]

